package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/shard"
)

// memoRows spans several default-size scan blocks, so the shards split
// the dataset between them.
const memoRows = 20000

var memoBody = map[string]any{
	"dataset": "pts", "alpha": 0.5, "size": 300, "kernels": 48, "seed": 17,
}

// usage reports the memo's entry count and bytes held.
func (m *weightMemo) usage() (entries int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.bytes
}

// kernelEvalsOf runs one request against srv and returns the kernel
// evaluations it recorded.
func kernelEvalsOf(t *testing.T, srv *Server, url string, body any) (int64, []byte) {
	t.Helper()
	before := srv.rec.Counter(obs.CtrKernelEvals).Value()
	resp, data := postJSON(t, url+"/v1/sample", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, data)
	}
	return srv.rec.Counter(obs.CtrKernelEvals).Value() - before, data
}

// A sharded in-process /v1/sample evaluates each density once, like the
// single-node request: the two record the same kernel evaluations, every
// phase-two block is a memo hit, the memo is empty after the request, and
// /metrics exports the memo's counters and gauge.
func TestShardWeightMemoOneEvalPerPoint(t *testing.T) {
	single, sts, _ := newTestServer(t, Config{Parallelism: 2}, memoRows)
	want, wantBody := kernelEvalsOf(t, single, sts.URL, memoBody)
	if want == 0 {
		t.Fatal("single-node request recorded no kernel evaluations")
	}

	srv, ts, _ := newTestServer(t, Config{Parallelism: 2, ShardWorkers: 2}, memoRows)
	got, body := kernelEvalsOf(t, srv, ts.URL, memoBody)
	if got != want {
		t.Errorf("sharded request recorded %d kernel evaluations, single-node %d", got, want)
	}
	if !bytes.Equal(body, wantBody) {
		t.Error("sharded response differs from single-node")
	}
	if entries, b := srv.shardEx.memo.usage(); entries != 0 || b != 0 {
		t.Errorf("memo holds %d entries (%d bytes) after a completed request", entries, b)
	}
	blocks := int64((memoRows + 4095) / 4096)
	if h, m := srv.rec.Counter(CtrWeightMemoHits).Value(), srv.rec.Counter(CtrWeightMemoMisses).Value(); h != blocks || m != 0 {
		t.Errorf("memo hits/misses = %d/%d, want %d/0", h, m, blocks)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, name := range []string{CtrWeightMemoHits, CtrWeightMemoMisses, GaugeWeightMemo} {
		if !strings.Contains(string(text), name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// splitPeer serves phase one from one worker and phase two from another:
// a replica that never saw phase one, as a fallback or hedge would reach.
func splitPeer(t *testing.T, partials, draw http.Handler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(shard.PathPartials, partials)
	mux.Handle(shard.PathDraw, draw)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// memoWorker is shardWorker over memoRows, returning the Server too.
func memoWorker(t *testing.T, name string) *Server {
	t.Helper()
	srv := New(Config{Parallelism: 2, ShardOf: name})
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(memoRows, 2, 11))); err != nil {
		t.Fatal(err)
	}
	return srv
}

// Memo hits, forced misses and HTTP workers serve byte-identical
// /v1/sample bodies. The worker that never saw phase one recomputes every
// block (all misses); the one that served only phase one is left holding
// its abandoned entries, within the cap.
func TestShardWeightMemoHitMissParity(t *testing.T) {
	_, ref, _ := newTestServer(t, Config{Parallelism: 2}, memoRows)
	resp, want := postJSON(t, ref.URL+"/v1/sample", memoBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference: %d: %s", resp.StatusCode, want)
	}
	check := func(name string, url string) {
		t.Helper()
		resp, got := postJSON(t, url+"/v1/sample", memoBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", name, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response differs from single-node", name)
		}
	}

	hit, hts, _ := newTestServer(t, Config{Parallelism: 2, ShardWorkers: 2}, memoRows)
	check("memo hit", hts.URL)
	if m := hit.rec.Counter(CtrWeightMemoMisses).Value(); m != 0 {
		t.Errorf("memo hit: %d misses", m)
	}

	// HTTP workers: each serves both phases of its blocks, so all hit.
	wa, wb := memoWorker(t, "a"), memoWorker(t, "b")
	tsa, tsb := httptest.NewServer(wa.Handler()), httptest.NewServer(wb.Handler())
	t.Cleanup(tsa.Close)
	t.Cleanup(tsb.Close)
	_, hcoord, _ := newTestServer(t, Config{Parallelism: 2, ShardPeers: map[string]string{"a": tsa.URL, "b": tsb.URL}}, memoRows)
	check("http", hcoord.URL)
	for name, w := range map[string]*Server{"a": wa, "b": wb} {
		if m := w.rec.Counter(CtrWeightMemoMisses).Value(); m != 0 {
			t.Errorf("http worker %s: %d misses", name, m)
		}
		if entries, _ := w.shardEx.memo.usage(); entries != 0 {
			t.Errorf("http worker %s: %d entries left", name, entries)
		}
	}

	// Forced miss: phase one on p1, phase two on p2.
	p1, p2 := memoWorker(t, "a"), memoWorker(t, "a")
	split := splitPeer(t, p1.Handler(), p2.Handler())
	_, scoord, _ := newTestServer(t, Config{Parallelism: 2, ShardPeers: map[string]string{"a": split.URL}}, memoRows)
	check("forced miss", scoord.URL)
	blocks := int64((memoRows + 4095) / 4096)
	if h, m := p2.rec.Counter(CtrWeightMemoHits).Value(), p2.rec.Counter(CtrWeightMemoMisses).Value(); h != 0 || m != blocks {
		t.Errorf("phase-two worker hits/misses = %d/%d, want 0/%d", h, m, blocks)
	}
	entries, b := p1.shardEx.memo.usage()
	if entries != int(blocks) || b != 8*memoRows {
		t.Errorf("phase-one worker holds %d entries (%d bytes), want %d (%d)", entries, b, blocks, 8*memoRows)
	}
	if b > weightMemoCap {
		t.Errorf("abandoned entries hold %d bytes, over the %d cap", b, weightMemoCap)
	}
	if g := p1.rec.Gauge(GaugeWeightMemo).Value(); g != float64(b) {
		t.Errorf("%s = %v, memo holds %d bytes", GaugeWeightMemo, g, b)
	}
}

// A coordinator that gives up between the phases abandons phase one's
// entries on the worker. Repeated, they stay within the cap: the oldest
// are dropped first, and the gauge follows the bytes held.
func TestShardWeightMemoAbandonedBounded(t *testing.T) {
	worker := memoWorker(t, "a")
	// Room for one and a half runs' weights, so the second run's entries
	// push out the first's.
	worker.shardEx.memo.capBytes = 12 * memoRows
	stall := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The server notices the client hanging up only once the body
		// has been read.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	split := splitPeer(t, worker.Handler(), stall)
	_, coord, _ := newTestServer(t, Config{
		Parallelism: 2,
		Deadline:    300 * time.Millisecond,
		ShardPeers:  map[string]string{"a": split.URL},
	}, memoRows)

	for seed := 1; seed <= 4; seed++ {
		body := map[string]any{"dataset": "pts", "alpha": 1.0, "size": 100, "kernels": 32, "seed": seed}
		resp, data := postJSON(t, coord.URL+"/v1/sample", body)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("seed %d: served despite a stalled phase two: %s", seed, data)
		}
		entries, b := worker.shardEx.memo.usage()
		if b > worker.shardEx.memo.capBytes {
			t.Fatalf("seed %d: memo holds %d bytes, over its %d cap", seed, b, worker.shardEx.memo.capBytes)
		}
		if entries == 0 {
			t.Fatalf("seed %d: phase one stored nothing", seed)
		}
		if g := worker.rec.Gauge(GaugeWeightMemo).Value(); g != float64(b) {
			t.Errorf("seed %d: %s = %v, memo holds %d bytes", seed, GaugeWeightMemo, g, b)
		}
	}
}

// The memo drops its oldest entries first, deletes on read, and never
// stores an entry larger than its cap.
func TestShardWeightMemoOldestFirst(t *testing.T) {
	rec := obs.New()
	m := newWeightMemo(rec)
	m.capBytes = 3 * 8 * 10
	run := m.bind(shard.Params{Dataset: "d", Seed: 1, Size: 5})
	for b := 0; b < 4; b++ {
		run.Put(b, make([]float64, 10))
	}
	if entries, bytes := m.usage(); entries != 3 || bytes != m.capBytes {
		t.Fatalf("memo holds %d entries (%d bytes), want 3 (%d)", entries, bytes, m.capBytes)
	}
	// The same run under another sample size shares the entries.
	other := m.bind(shard.Params{Dataset: "d", Seed: 1, Size: 9})
	if other.Take(0) != nil {
		t.Error("the oldest block survived past the cap")
	}
	for b := 1; b < 4; b++ {
		if other.Take(b) == nil {
			t.Errorf("block %d was dropped, want kept", b)
		}
		if other.Take(b) != nil {
			t.Errorf("block %d was taken twice", b)
		}
	}
	run.Put(0, make([]float64, 31))
	if entries, bytes := m.usage(); entries != 0 || bytes != 0 {
		t.Errorf("memo holds %d entries (%d bytes), want none", entries, bytes)
	}
	if h, mi := rec.Counter(CtrWeightMemoHits).Value(), rec.Counter(CtrWeightMemoMisses).Value(); h != 3 || mi != 4 {
		t.Errorf("hits/misses = %d/%d, want 3/4", h, mi)
	}
}

// Concurrent runs share one memo: puts, takes and oldest-first drops from
// many goroutines keep the byte count exact and within the cap.
func TestShardWeightMemoConcurrent(t *testing.T) {
	m := newWeightMemo(obs.New())
	m.capBytes = 8 * 10 * 12
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := m.bind(shard.Params{Dataset: "d", Seed: uint64(g)})
			for b := 0; b < 50; b++ {
				run.Put(b, make([]float64, 10))
				if b%2 == 1 {
					if w := run.Take(b - 1); w != nil && len(w) != 10 {
						t.Errorf("run %d block %d: %d weights, want 10", g, b-1, len(w))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	entries, b := m.usage()
	if b > m.capBytes || b != int64(80*entries) || m.order.Len() != entries {
		t.Errorf("memo holds %d entries in a %d-long order, %d bytes (cap %d)", entries, m.order.Len(), b, m.capBytes)
	}
}
