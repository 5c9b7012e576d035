package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Outcome classifies how a GetOrBuild lookup was served. Exactly one
// outcome is counted per lookup, so at quiescence
// lookups == hits + misses + stale-served — the conservation law the
// counter tests assert.
type Outcome int

const (
	// OutcomeMiss: the artifact was built (or the build failed with no
	// stale copy to fall back on).
	OutcomeMiss Outcome = iota
	// OutcomeHit: served from the cache, including joining an in-flight
	// build that succeeded — no dataset passes either way.
	OutcomeHit
	// OutcomeStale: the build failed but a previously evicted copy was
	// served instead (graceful degradation).
	OutcomeStale
	// OutcomeDisk: the build closure loaded the artifact from the disk
	// tier instead of recomputing it. The Cache itself counts these as
	// misses (the memory tier did miss); the server's handlers remap the
	// outcome after checking the disk-load flag, so the conservation law
	// lookups == hits + misses + stale is unchanged.
	OutcomeDisk
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeStale:
		return "stale"
	case OutcomeDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Cache is the pipeline artifact cache: an LRU over expensive intermediate
// results (built KDE estimators, drawn samples) with byte-size accounting.
// Keys canonicalize (dataset fingerprint, parameters, seed) — see
// cacheKey in handlers.go — so a repeat query finds the artifact a previous
// request built and skips its dataset passes entirely.
//
// Concurrent requests for the same missing key are single-flighted: the
// first runs the build, the rest block on its completion and share the
// result. Failed builds are not cached; every waiter receives the error
// (or the stale fallback) and the next request retries the build.
//
// Evicted artifacts optionally move to a stale side-ring (its own LRU,
// bounded by staleBytes). When a rebuild fails, the stale copy is served
// instead of the error — deterministically the same bytes the fresh
// artifact had, just older — and the key stays rebuildable.
type Cache struct {
	maxBytes   int64
	staleBytes int64

	mu    sync.Mutex
	used  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	staleUsed int64
	sll       *list.List // stale ring, front = most recently used
	stale     map[string]*list.Element

	lookups     atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	staleServed atomic.Int64
	evictions   atomic.Int64
	peeks       atomic.Int64
	peekHits    atomic.Int64
}

type centry struct {
	key   string
	val   any
	size  int64
	done  bool // build finished (guarded by Cache.mu)
	stale bool // val came from the stale ring after a failed build
	err   error
	ready chan struct{} // closed when done; fields are immutable after
}

type sentry struct {
	key  string
	val  any
	size int64
}

// NewCache returns a cache bounded to maxBytes of accounted artifact
// size, keeping up to staleBytes of evicted artifacts around as rebuild
// fallbacks. maxBytes ≤ 0 disables storage: every lookup builds (still
// single-flighted for concurrent identical requests). staleBytes ≤ 0
// disables stale fallback.
func NewCache(maxBytes, staleBytes int64) *Cache {
	return &Cache{
		maxBytes:   maxBytes,
		staleBytes: staleBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		sll:        list.New(),
		stale:      make(map[string]*list.Element),
	}
}

// GetOrBuild returns the artifact cached under key, or runs build to
// create it. build returns the artifact and its accounted byte size. The
// Outcome reports how the lookup was served; on OutcomeStale the value is
// a previously evicted copy and err is nil.
func (c *Cache) GetOrBuild(key string, build func() (any, int64, error)) (any, Outcome, error) {
	c.lookups.Add(1)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*centry)
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		<-e.ready
		switch {
		case e.err != nil:
			c.misses.Add(1)
			return nil, OutcomeMiss, e.err
		case e.stale:
			c.staleServed.Add(1)
			return e.val, OutcomeStale, nil
		default:
			c.hits.Add(1)
			return e.val, OutcomeHit, nil
		}
	}
	e := &centry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.mu.Unlock()

	v, size, err := build()

	c.mu.Lock()
	e.done = true
	if err != nil {
		if sl, ok := c.stale[key]; ok {
			// Failed rebuild with a stale copy on hand: serve it, and
			// leave the key out of the primary map so the next lookup
			// retries the build.
			sv := sl.Value.(*sentry)
			c.sll.MoveToFront(sl)
			e.val, e.size, e.stale = sv.val, sv.size, true
			v, err = sv.val, nil
		} else {
			e.err = err
		}
		c.removeLocked(el, e)
	} else {
		e.val, e.size = v, size
		// A fresh artifact supersedes its stale copy.
		c.dropStaleLocked(key)
		if c.maxBytes <= 0 || size > c.maxBytes {
			// Larger than the whole budget (or storage disabled): the
			// artifact could never be reused, so it is not admitted —
			// and not counted as an eviction, since it was never in.
			c.removeLocked(el, e)
		} else {
			c.used += size
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	close(e.ready)

	switch {
	case err != nil:
		c.misses.Add(1)
		return nil, OutcomeMiss, err
	case e.stale:
		c.staleServed.Add(1)
		return v, OutcomeStale, nil
	default:
		c.misses.Add(1)
		return v, OutcomeMiss, nil
	}
}

// Hit returns the finished artifact resident under key in the memory
// tier, counted as one lookup and one hit, or false — counting nothing —
// when the key is absent, still building, or only in the stale ring. It
// never builds and never waits, so the conservation law holds whichever
// way it answers: a false leaves the lookup to a later GetOrBuild.
func (c *Cache) Hit(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*centry)
	if !e.done || e.err != nil || e.stale {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.lookups.Add(1)
	c.hits.Add(1)
	return e.val, true
}

// Peek returns the artifact cached under key without building, waiting
// on an in-flight build, or counting toward the lookup conservation law
// (peeks have their own counters). The degrade path uses it to check
// for a servable fallback artifact while the server is shedding — a
// peek must never trigger the expensive work admission just refused.
func (c *Cache) Peek(key string) (any, bool) {
	c.peeks.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*centry)
		if e.done && e.err == nil {
			c.ll.MoveToFront(el)
			c.peekHits.Add(1)
			return e.val, true
		}
		return nil, false
	}
	if sl, ok := c.stale[key]; ok {
		c.sll.MoveToFront(sl)
		c.peekHits.Add(1)
		return sl.Value.(*sentry).val, true
	}
	return nil, false
}

// removeLocked takes el out of the primary index without touching byte
// accounting (its size was never added). Waiters still hold e and read
// its fields after ready closes.
func (c *Cache) removeLocked(el *list.Element, e *centry) {
	if cur, ok := c.items[e.key]; ok && cur == el {
		delete(c.items, e.key)
		c.ll.Remove(el)
	}
}

// evictLocked drops least-recently-used completed entries until the byte
// budget holds, moving each into the stale ring. In-flight builds are
// never evicted (their size is unknown and waiters hold their entry).
func (c *Cache) evictLocked() {
	el := c.ll.Back()
	for c.used > c.maxBytes && el != nil {
		prev := el.Prev()
		e := el.Value.(*centry)
		if e.done {
			delete(c.items, e.key)
			c.ll.Remove(el)
			c.used -= e.size
			c.evictions.Add(1)
			c.keepStaleLocked(e.key, e.val, e.size)
		}
		el = prev
	}
}

// keepStaleLocked files an evicted artifact into the stale ring,
// evicting stale-LRU entries to hold the staleBytes budget. Artifacts
// larger than the whole stale budget are dropped.
func (c *Cache) keepStaleLocked(key string, val any, size int64) {
	if size > c.staleBytes {
		return
	}
	c.dropStaleLocked(key)
	c.stale[key] = c.sll.PushFront(&sentry{key: key, val: val, size: size})
	c.staleUsed += size
	for c.staleUsed > c.staleBytes {
		back := c.sll.Back()
		sv := back.Value.(*sentry)
		c.sll.Remove(back)
		delete(c.stale, sv.key)
		c.staleUsed -= sv.size
	}
}

// dropStaleLocked removes key's stale copy, if any.
func (c *Cache) dropStaleLocked(key string) {
	if sl, ok := c.stale[key]; ok {
		c.staleUsed -= sl.Value.(*sentry).size
		c.sll.Remove(sl)
		delete(c.stale, key)
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Bytes       int64 `json:"bytes"`
	Items       int   `json:"items"`
	StaleBytes  int64 `json:"stale_bytes"`
	StaleItems  int   `json:"stale_items"`
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	StaleServed int64 `json:"stale_served"`
	Evictions   int64 `json:"evictions"`
	Peeks       int64 `json:"peeks,omitempty"`
	PeekHits    int64 `json:"peek_hits,omitempty"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	bytes, items := c.used, len(c.items)
	sbytes, sitems := c.staleUsed, len(c.stale)
	c.mu.Unlock()
	return CacheStats{
		Bytes:       bytes,
		Items:       items,
		StaleBytes:  sbytes,
		StaleItems:  sitems,
		Lookups:     c.lookups.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		StaleServed: c.staleServed.Load(),
		Evictions:   c.evictions.Load(),
		Peeks:       c.peeks.Load(),
		PeekHits:    c.peekHits.Load(),
	}
}

// invariants checks the cache's internal accounting; the chaos suite
// calls it after every fault schedule. Valid at quiescence (no lookups
// in flight).
func (c *Cache) invariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*centry); e.done {
			sum += e.size
		}
	}
	if c.ll.Len() != len(c.items) {
		return fmt.Errorf("cache: list has %d entries, index %d", c.ll.Len(), len(c.items))
	}
	if sum != c.used {
		return fmt.Errorf("cache: accounted %d bytes, entries sum to %d", c.used, sum)
	}
	if c.maxBytes > 0 && c.used > c.maxBytes {
		return fmt.Errorf("cache: %d bytes used over budget %d", c.used, c.maxBytes)
	}
	var ssum int64
	for el := c.sll.Front(); el != nil; el = el.Next() {
		ssum += el.Value.(*sentry).size
	}
	if c.sll.Len() != len(c.stale) {
		return fmt.Errorf("cache: stale ring has %d entries, index %d", c.sll.Len(), len(c.stale))
	}
	if ssum != c.staleUsed {
		return fmt.Errorf("cache: stale accounted %d bytes, entries sum to %d", c.staleUsed, ssum)
	}
	if c.staleUsed > c.staleBytes {
		return fmt.Errorf("cache: stale %d bytes over budget %d", c.staleUsed, c.staleBytes)
	}
	lk, h, m, st := c.lookups.Load(), c.hits.Load(), c.misses.Load(), c.staleServed.Load()
	if lk != h+m+st {
		return fmt.Errorf("cache: %d lookups != %d hits + %d misses + %d stale", lk, h, m, st)
	}
	return nil
}
