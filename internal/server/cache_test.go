package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(1<<20, 0)
	builds := 0
	build := func() (any, int64, error) { builds++; return "artifact", 100, nil }

	v, out, err := c.GetOrBuild("k", build)
	if err != nil || out != OutcomeMiss || v != "artifact" {
		t.Fatalf("first: v=%v out=%v err=%v", v, out, err)
	}
	v, out, err = c.GetOrBuild("k", build)
	if err != nil || out != OutcomeHit || v != "artifact" {
		t.Fatalf("second: v=%v out=%v err=%v", v, out, err)
	}
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 100 || st.Items != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(250, 0)
	mk := func(key string) {
		t.Helper()
		if _, _, err := c.GetOrBuild(key, func() (any, int64, error) { return key, 100, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	// Touch "a" so "b" is the LRU victim when "c" overflows the budget.
	if _, out, _ := c.GetOrBuild("a", nil); out != OutcomeHit {
		t.Fatal("a should be cached")
	}
	mk("c")
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 200 || st.Items != 2 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	if _, out, _ := c.GetOrBuild("a", nil); out != OutcomeHit {
		t.Error("recently used entry a was evicted")
	}
	if _, out, _ := c.GetOrBuild("b", func() (any, int64, error) { return "b", 100, nil }); out == OutcomeHit {
		t.Error("LRU entry b survived eviction")
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(1<<20, 0)
	var builds atomic.Int32
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	outs := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.GetOrBuild("k", func() (any, int64, error) {
				builds.Add(1)
				<-gate
				return 42, 8, nil
			})
			if err != nil || v != 42 {
				t.Errorf("goroutine %d: v=%v err=%v", i, v, err)
			}
			outs[i] = out
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1 (singleflight)", n)
	}
	nhits := 0
	for _, o := range outs {
		if o == OutcomeHit {
			nhits++
		}
	}
	if nhits != waiters-1 {
		t.Errorf("%d hits, want %d (all but the builder)", nhits, waiters-1)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := NewCache(1<<20, 0)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed build must not poison the key: the next call retries.
	v, out, err := c.GetOrBuild("k", func() (any, int64, error) { return "ok", 8, nil })
	if err != nil || out != OutcomeMiss || v != "ok" {
		t.Fatalf("retry: v=%v out=%v err=%v", v, out, err)
	}
	if st := c.Stats(); st.Items != 1 || st.Bytes != 8 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// TestCacheCounterConservation is the regression test for the counter
// drift bug: every lookup must land in exactly one of hits, misses, or
// stale-served — including waiters that join an in-flight build whose
// build fails, which the original implementation counted as nothing.
func TestCacheCounterConservation(t *testing.T) {
	c := NewCache(1<<20, 0)
	boom := errors.New("boom")
	gate := make(chan struct{})
	entered := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.GetOrBuild("k", func() (any, int64, error) {
			close(entered)
			<-gate
			return nil, 0, boom
		})
	}()
	<-entered
	// Join the in-flight build from several waiters; all of them will
	// see the failure. A waiter's build function must be callable: the
	// lookups poll below races with the map lookup (Lookups increments
	// first), so a waiter that arrives after the failed build's cleanup
	// removed the key legally takes the build path itself — it must then
	// produce the same miss/boom outcome, not dereference nil.
	const waiters = 4
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lateBuild := func() (any, int64, error) { return nil, 0, boom }
			if _, out, err := c.GetOrBuild("k", lateBuild); !errors.Is(err, boom) || out != OutcomeMiss {
				t.Errorf("waiter: out=%v err=%v, want miss/boom", out, err)
			}
		}()
	}
	// Let the waiters pile onto the entry, then fail the build. The
	// sleep-free way would need cache internals; polling Lookups is
	// enough since joining increments it before blocking.
	for c.Stats().Lookups < waiters+1 {
	}
	close(gate)
	wg.Wait()

	st := c.Stats()
	if st.Lookups != waiters+1 {
		t.Fatalf("lookups = %d, want %d", st.Lookups, waiters+1)
	}
	if got := st.Hits + st.Misses + st.StaleServed; got != st.Lookups {
		t.Errorf("hits(%d) + misses(%d) + stale(%d) = %d, want %d lookups",
			st.Hits, st.Misses, st.StaleServed, got, st.Lookups)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// TestCacheOversizeBuildNotAdmitted is the regression test for the
// oversize admit-then-evict bug: an artifact larger than the whole
// budget was admitted, drained every other entry via the eviction loop,
// and counted a bogus eviction for itself.
func TestCacheOversizeBuildNotAdmitted(t *testing.T) {
	c := NewCache(250, 0)
	if _, _, err := c.GetOrBuild("small", func() (any, int64, error) { return "s", 100, nil }); err != nil {
		t.Fatal(err)
	}
	v, out, err := c.GetOrBuild("huge", func() (any, int64, error) { return "h", 1000, nil })
	if err != nil || out != OutcomeMiss || v != "h" {
		t.Fatalf("huge: v=%v out=%v err=%v", v, out, err)
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 — the oversize artifact was never reusable", st.Evictions)
	}
	if st.Bytes != 100 || st.Items != 1 {
		t.Errorf("stats = %+v, want the small entry untouched", st)
	}
	if _, out, _ := c.GetOrBuild("small", nil); out != OutcomeHit {
		t.Error("oversize build evicted an unrelated cached entry")
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// TestCacheStaleServeAfterEviction covers graceful degradation: an
// evicted artifact moves to the stale ring and is served — flagged
// stale, byte-identical — when its rebuild fails; a successful rebuild
// replaces it and drops the stale copy.
func TestCacheStaleServeAfterEviction(t *testing.T) {
	c := NewCache(150, 150)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("a", func() (any, int64, error) { return "a1", 100, nil }); err != nil {
		t.Fatal(err)
	}
	// Evict "a" by inserting "b".
	if _, _, err := c.GetOrBuild("b", func() (any, int64, error) { return "b1", 100, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.StaleItems != 1 || st.StaleBytes != 100 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	// Rebuild of "a" fails: the stale copy is served, err suppressed.
	v, out, err := c.GetOrBuild("a", func() (any, int64, error) { return nil, 0, boom })
	if err != nil || out != OutcomeStale || v != "a1" {
		t.Fatalf("stale serve: v=%v out=%v err=%v", v, out, err)
	}
	// The key stays rebuildable: a later successful build wins and
	// drops the stale copy.
	v, out, err = c.GetOrBuild("a", func() (any, int64, error) { return "a2", 100, nil })
	if err != nil || out != OutcomeMiss || v != "a2" {
		t.Fatalf("rebuild: v=%v out=%v err=%v", v, out, err)
	}
	st := c.Stats()
	if st.StaleServed != 1 {
		t.Errorf("stale served = %d, want 1", st.StaleServed)
	}
	// "a2" displaced "b"; b's copy now sits in the stale ring, a's is gone.
	if _, out, _ := c.GetOrBuild("a", nil); out != OutcomeHit {
		t.Error("fresh rebuild of a not cached")
	}
	if got := st.Hits + st.Misses + st.StaleServed; got != st.Lookups {
		t.Errorf("conservation: %d + %d + %d != %d", st.Hits, st.Misses, st.StaleServed, st.Lookups)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheStaleDisabledFailsThrough(t *testing.T) {
	c := NewCache(150, 0)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("a", func() (any, int64, error) { return "a1", 100, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild("b", func() (any, int64, error) { return "b1", 100, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild("a", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom (stale fallback disabled)", err)
	}
	if st := c.Stats(); st.StaleServed != 0 || st.StaleItems != 0 {
		t.Errorf("stats = %+v, want no stale activity", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheZeroBudgetStoresNothing(t *testing.T) {
	c := NewCache(0, 0)
	builds := 0
	for i := 0; i < 3; i++ {
		v, out, err := c.GetOrBuild("k", func() (any, int64, error) { builds++; return "v", 100, nil })
		if err != nil || out != OutcomeMiss || v != "v" {
			t.Fatalf("iter %d: v=%v out=%v err=%v", i, v, out, err)
		}
	}
	if builds != 3 {
		t.Errorf("builds = %d, want 3 (storage disabled)", builds)
	}
	if st := c.Stats(); st.Bytes != 0 || st.Items != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(1<<10, 0)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			if _, _, err := c.GetOrBuild(key, func() (any, int64, error) { return i, 64, nil }); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 1<<10 {
		t.Errorf("budget exceeded: %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// TestCacheHitCountsOnlyResident: Cache.Hit answers only a finished,
// successful primary entry — counted as one lookup and one hit — and
// counts nothing for an absent key, an in-flight build, a failed build,
// or a copy that lives only in the stale ring.
func TestCacheHitCountsOnlyResident(t *testing.T) {
	c := NewCache(150, 150)
	miss := func(key, why string) {
		t.Helper()
		before := c.Stats()
		if _, ok := c.Hit(key); ok {
			t.Errorf("Hit(%q) = true for %s", key, why)
		}
		if after := c.Stats(); after.Lookups != before.Lookups || after.Hits != before.Hits {
			t.Errorf("Hit(%q) on %s counted: %+v -> %+v", key, why, before, after)
		}
	}
	miss("a", "an absent key")

	gate, building, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrBuild("a", func() (any, int64, error) { close(building); <-gate; return "a1", 100, nil })
	}()
	<-building
	miss("a", "an in-flight build")
	close(gate)
	<-done

	before := c.Stats()
	if v, ok := c.Hit("a"); !ok || v != "a1" {
		t.Fatalf("Hit(a) = %v, %v; want a1, true", v, ok)
	}
	if after := c.Stats(); after.Lookups != before.Lookups+1 || after.Hits != before.Hits+1 {
		t.Errorf("resident Hit counted %+v -> %+v, want one lookup and one hit", before, after)
	}

	c.GetOrBuild("x", func() (any, int64, error) { return nil, 0, errors.New("boom") })
	miss("x", "a failed build")
	// Evict "a" into the stale ring by inserting "b".
	c.GetOrBuild("b", func() (any, int64, error) { return "b1", 100, nil })
	miss("a", "a stale-ring copy")
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}
