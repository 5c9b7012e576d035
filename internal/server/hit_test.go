package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
)

// holdSlot occupies the server's only admission slot out of band until
// the test ends, so any request that enters admission sheds.
func holdSlot(t *testing.T, srv *Server) {
	t.Helper()
	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
}

// saturatedConfig admits one request and queues none.
var saturatedConfig = Config{Parallelism: 2, MaxInFlight: 1, MaxQueue: -1, Deadline: 5 * time.Second}

// TestHitServedWithoutAdmissionSlot: with the only slot held, a resident
// sample still answers 200 promptly — byte-identical to the cold body,
// marked as a hit, counted as one lookup and one hit, and without adding
// a queue wait.
func TestHitServedWithoutAdmissionSlot(t *testing.T) {
	srv, ts, mem := newTestServer(t, saturatedConfig, 2000)
	resp, cold := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DBS-Cache") != "miss" {
		t.Fatalf("cold: %d %q: %s", resp.StatusCode, resp.Header.Get("X-DBS-Cache"), cold)
	}
	holdSlot(t, srv)
	passes := mem.Passes()
	queued := srv.rec.Histogram(HistQueueSeconds).Count()
	before := srv.cache.Stats()

	start := time.Now()
	resp, hit := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit with the slot held: %d, want 200: %s", resp.StatusCode, hit)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("hit took %v with the slot held", d)
	}
	if !bytes.Equal(hit, cold) {
		t.Error("unadmitted hit body differs from the cold body")
	}
	if got := resp.Header.Get("X-DBS-Cache"); got != "hit" {
		t.Errorf("X-DBS-Cache = %q, want hit", got)
	}
	if resp.Header.Get(TraceHeader) == "" {
		t.Error("unadmitted hit carries no trace ID")
	}
	if got := srv.rec.Histogram(HistQueueSeconds).Count(); got != queued {
		t.Errorf("queue-wait observations %d -> %d; a hit must add none", queued, got)
	}
	after := srv.cache.Stats()
	if after.Lookups-before.Lookups != 1 || after.Hits-before.Hits != 1 || after.Misses != before.Misses {
		t.Errorf("cache stats %+v -> %+v, want exactly one more lookup and hit", before, after)
	}
	if got := srv.rec.Counter(CtrHitsUnadmitted).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", CtrHitsUnadmitted, got)
	}
	if got := srv.rec.Counter(CtrCacheHit).Value(); got != after.Hits {
		t.Errorf("%s = %d, want the cache's %d", CtrCacheHit, got, after.Hits)
	}
	if mem.Passes() != passes {
		t.Errorf("unadmitted hit scanned the dataset (%d -> %d passes)", passes, mem.Passes())
	}
	if srv.adm.Shed() != 0 {
		t.Errorf("admission shed %d requests; the hit never entered it", srv.adm.Shed())
	}
	if err := srv.cache.invariants(); err != nil {
		t.Error(err)
	}
}

// TestHitTraceKeepsAcquireAndCacheEvents: a traced unadmitted hit shows
// the registry acquire and cache lookup, and no admission wait.
func TestHitTraceKeepsAcquireAndCacheEvents(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, TraceSample: 1, TraceSeed: 9}, 1500)
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d: %s", resp.StatusCode, body)
	}
	holdSlot(t, srv)
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit: %d: %s", resp.StatusCode, body)
	}
	tr := getTraces(t, ts.URL)
	hit := tr.Recent[0]
	if hit.ID != resp.Header.Get(TraceHeader) || hit.Cache != "hit" {
		t.Fatalf("newest trace = %s cache %q, want %s hit", hit.ID, hit.Cache, resp.Header.Get(TraceHeader))
	}
	paths := eventPaths(hit)
	if paths["registry/acquire"] != 1 || paths["cache/sample"] != 1 {
		t.Errorf("hit trace events = %v, want one registry/acquire and one cache/sample", paths)
	}
	if paths["admission/wait"] != 0 || paths["scan"] != 0 {
		t.Errorf("unadmitted hit trace shows admission or scans: %v", paths)
	}
}

// TestHitDrainingStill503: a draining server answers even a resident
// sample with 503.
func TestHitDrainingStill503(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, 500)
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d: %s", resp.StatusCode, body)
	}
	srv.StartDraining()
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining hit: %d, want 503: %s", resp.StatusCode, body)
	}
	if got := srv.rec.Counter(CtrHitsUnadmitted).Value(); got != 0 {
		t.Errorf("%s = %d while draining, want 0", CtrHitsUnadmitted, got)
	}
}

// TestHitColdKeyStill429: with the slot held, a key that is not resident
// enters admission and sheds as before.
func TestHitColdKeyStill429(t *testing.T) {
	srv, ts, _ := newTestServer(t, saturatedConfig, 500)
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d: %s", resp.StatusCode, body)
	}
	holdSlot(t, srv)
	other := map[string]any{"dataset": "pts", "alpha": 1.0, "size": 200, "kernels": 64, "seed": 7}
	if resp, body := postJSON(t, ts.URL+"/v1/sample", other); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold key with the slot held: %d, want 429: %s", resp.StatusCode, body)
	}
	// A malformed request is not answered before admission either.
	bad := map[string]any{"dataset": "pts", "alpha": 1.0, "size": -1}
	if resp, body := postJSON(t, ts.URL+"/v1/sample", bad); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bad request with the slot held: %d, want 429: %s", resp.StatusCode, body)
	}
	if got := srv.adm.ShedQueueFull(); got != 2 {
		t.Errorf("shed = %d, want 2", got)
	}
}

// TestHitNothingBeforeAdmission: what is not resident does no work
// before admission — a fresh path registration is not opened, and an
// un-memoized generation fingerprint is not computed — so with the slot
// held such a request sheds without a dataset pass or a file open.
func TestHitNothingBeforeAdmission(t *testing.T) {
	t.Run("path", func(t *testing.T) {
		srv, ts, _ := newTestServer(t, saturatedConfig, 100)
		if err := srv.Registry().RegisterPath("file", testFile(t, 500, 2)); err != nil {
			t.Fatal(err)
		}
		holdSlot(t, srv)
		body := map[string]any{"dataset": "file", "alpha": 1.0, "size": 50, "kernels": 16, "seed": 3}
		if resp, data := postJSON(t, ts.URL+"/v1/sample", body); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("unopened path entry: %d, want 429: %s", resp.StatusCode, data)
		}
		for _, info := range srv.Registry().List() {
			if info.Name == "file" && (info.Open || info.Fingerprint != "") {
				t.Errorf("path entry touched before admission: %+v", info)
			}
		}
	})
	t.Run("fingerprint", func(t *testing.T) {
		srv, ts, mem := newTestServer(t, saturatedConfig, 2000)
		holdSlot(t, srv)
		if resp, data := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("un-fingerprinted dataset: %d, want 429: %s", resp.StatusCode, data)
		}
		if got := mem.Passes(); got != 0 {
			t.Errorf("%d dataset passes before admission, want 0", got)
		}
	})
	t.Run("generation", func(t *testing.T) {
		srv, ts, mem := newTestServer(t, saturatedConfig, 2000)
		if resp, data := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("cold: %d: %s", resp.StatusCode, data)
		}
		// A new generation: its fingerprint is not memoized yet, and the
		// cached sample belongs to the superseded generation.
		if err := mem.Append(testPoints(100, 2, 5)...); err != nil {
			t.Fatal(err)
		}
		holdSlot(t, srv)
		passes := mem.Passes()
		if resp, data := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("new generation: %d, want 429: %s", resp.StatusCode, data)
		}
		if mem.Passes() != passes {
			t.Errorf("fingerprinting the new generation ran before admission (%d -> %d passes)", passes, mem.Passes())
		}
	})
}

// TestHitWindowFingerprintMemo: a windowed stream's resident sample is
// served unadmitted while its window fingerprint is memoized; after an
// append slides the window, the new window's fingerprint is not computed
// before admission.
func TestHitWindowFingerprintMemo(t *testing.T) {
	cfg := saturatedConfig
	cfg.WindowPoints = 500
	srv, ts := streamServer(t, cfg)
	streamAppend(t, ts.URL, "s", testPoints(400, 2, 1))
	streamAppend(t, ts.URL, "s", testPoints(400, 2, 2))
	body := map[string]any{"dataset": "s", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 5}
	resp, cold := postJSON(t, ts.URL+"/v1/sample", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold windowed sample: %d: %s", resp.StatusCode, cold)
	}

	func() {
		release, err := srv.adm.Enter(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		resp, hit := postJSON(t, ts.URL+"/v1/sample", body)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(hit, cold) {
			t.Fatalf("windowed hit with the slot held: %d (identical %v): %s", resp.StatusCode, bytes.Equal(hit, cold), hit)
		}
	}()

	streamAppend(t, ts.URL, "s", testPoints(100, 2, 3))
	holdSlot(t, srv)
	if resp, data := postJSON(t, ts.URL+"/v1/sample", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("slid window: %d, want 429: %s", resp.StatusCode, data)
	}
	st := srv.stream("s", false)
	st.mu.Lock()
	n := len(st.fps)
	st.mu.Unlock()
	if n != 1 {
		t.Errorf("window fingerprint memo holds %d windows, want 1 (the slid window computed before admission?)", n)
	}
}

// TestHitInFlightBuildFallsThrough: a key whose build is still running
// is not resident; the request enters admission (here: sheds) instead of
// joining the build without a slot.
func TestHitInFlightBuildFallsThrough(t *testing.T) {
	srv, ts, _ := newTestServer(t, saturatedConfig, 500)
	h, err := srv.Registry().Acquire("pts")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.Fingerprint()
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	sc := &sampleCall{req: sampleRequest{Dataset: "pts", Alpha: 1, Size: 200, Kernels: 64, Seed: 42}}
	if sc.p, err = sc.req.normalize(); err != nil {
		t.Fatal(err)
	}
	gate, building := make(chan struct{}), make(chan struct{})
	built := make(chan struct{})
	go func() {
		defer close(built)
		srv.cache.GetOrBuild(sc.req.key(fp, sc.p), func() (any, int64, error) {
			close(building)
			<-gate
			return nil, 0, errors.New("abandoned")
		})
	}()
	<-building

	holdSlot(t, srv)
	resp, data := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	close(gate)
	<-built
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("in-flight key with the slot held: %d, want 429: %s", resp.StatusCode, data)
	}
	if st := srv.cache.Stats(); st.Hits != 0 || st.Lookups != 1 {
		t.Errorf("cache stats %+v, want only the build's own lookup", st)
	}
	if err := srv.cache.invariants(); err != nil {
		t.Error(err)
	}
}

// TestChaosHitInvariants replays the chaos mix twice per fault schedule
// — a warming wave, then a concurrent wave whose resident samples take
// the unadmitted path — and checks that every 200 is byte-identical to
// the fault-free run, slots and queue drain, and the cache's accounting
// (lookups == hits + misses + stale) holds.
func TestChaosHitInvariants(t *testing.T) {
	checkLeaks := leakCheck(t)
	mem := dataset.MustInMemory(testPoints(600, 2, 11))
	ref := make([][]byte, len(chaosReqs))
	func() {
		srv := New(chaosConfig(nil))
		if err := srv.Registry().RegisterDataset("pts", mem); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for i, rq := range chaosReqs {
			status, _, body := postRaw(t, ts.URL+rq.path, rq.body)
			if status != http.StatusOK {
				t.Fatalf("reference %s: %d: %s", rq.name, status, body)
			}
			ref[i] = body
		}
	}()

	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	var unadmitted int64
	for seed := 1; seed <= seeds; seed++ {
		inj := faults.New(faults.Config{
			Seed: uint64(seed), PError: 0.15, PDelay: 0.10, PPartial: 0.10, PCancel: 0.05,
			MaxDelay: 500 * time.Microsecond,
		})
		cfg := chaosConfig(inj)
		cfg.CacheBytes = 1 << 20 // room for both identities: the second wave can hit
		srv := New(cfg)
		if err := srv.Registry().RegisterDataset("pts", faults.Wrap(mem, inj.Point("dataset"))); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		check := func(i, status int, data []byte) {
			switch status {
			case http.StatusOK:
				if !bytes.Equal(data, ref[i]) {
					t.Errorf("seed %d %s: 200 body differs from fault-free run", seed, chaosReqs[i].name)
				}
			case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			default:
				t.Errorf("seed %d %s: unexpected status %d: %s", seed, chaosReqs[i].name, status, data)
			}
		}
		for i, rq := range chaosReqs {
			status, _, data := postRaw(t, ts.URL+rq.path, rq.body)
			check(i, status, data)
		}
		var wg sync.WaitGroup
		for i, rq := range chaosReqs {
			wg.Add(1)
			go func(i int, path string, body map[string]any) {
				defer wg.Done()
				status, _, data := postRaw(t, ts.URL+path, body)
				check(i, status, data)
			}(i, rq.path, rq.body)
		}
		wg.Wait()
		ts.Close()

		if n, q := srv.adm.InFlight(), srv.adm.Queued(); n != 0 || q != 0 {
			t.Errorf("seed %d: %d in flight, %d queued after drain", seed, n, q)
		}
		if err := srv.cache.invariants(); err != nil {
			t.Errorf("seed %d: cache invariants: %v", seed, err)
		}
		unadmitted += srv.rec.Counter(CtrHitsUnadmitted).Value()
	}
	if unadmitted == 0 {
		t.Error("no request took the unadmitted hit path — the test exercised nothing")
	}
	checkLeaks()
}
