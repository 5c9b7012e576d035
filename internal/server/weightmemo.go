package server

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Shard weight-memo metrics, joining the /metrics catalogue. A miss is a
// phase-two block whose weights were not held (a hedged replica, an
// evicted entry, a phase one served elsewhere) and was recomputed.
const (
	CtrWeightMemoHits   = "shard_weight_memo_hits_total"
	CtrWeightMemoMisses = "shard_weight_memo_misses_total"
	GaugeWeightMemo     = "shard_weight_memo_bytes"
)

// weightMemoCap bounds the bytes of block weights a shard worker holds
// between the two phases of sharded draws. A completed run takes every
// entry its phase one stored, so the memo only fills with entries a
// failed, canceled or hedged run abandoned; those are dropped oldest
// first. 64 MiB holds the weights of 8M points — every block of a run up
// to that size survives until its phase two even with the memo full.
const weightMemoCap = 64 << 20

// memoKey addresses one block of one run. Params carries the run's
// identity with Size zeroed: the weights do not depend on the sample
// size, only on the dataset content, the estimator and alpha.
type memoKey struct {
	p     shard.Params
	block int
}

type memoEntry struct {
	key     memoKey
	weights []float64
}

// weightMemo is the shard worker's store of per-block biased weights,
// filled by core.NormPartials and drained by core.DrawBlocks. Entries are
// deleted on read and bounded by capBytes with oldest-first drop, so
// memory held for abandoned runs never exceeds the cap. Correctness never
// depends on it: a miss recomputes the identical weights.
type weightMemo struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	order    *list.List // of *memoEntry, oldest first
	entries  map[memoKey]*list.Element

	hits, misses *obs.Counter
	gauge        *obs.Gauge
}

func newWeightMemo(rec *obs.Recorder) *weightMemo {
	m := &weightMemo{
		capBytes: weightMemoCap,
		order:    list.New(),
		entries:  make(map[memoKey]*list.Element),
		hits:     rec.Counter(CtrWeightMemoHits),
		misses:   rec.Counter(CtrWeightMemoMisses),
		gauge:    rec.Gauge(GaugeWeightMemo),
	}
	m.gauge.Set(0)
	return m
}

// bind returns the core.WeightMemo view of the memo for one run.
func (m *weightMemo) bind(p shard.Params) core.WeightMemo {
	p.Size = 0
	return boundMemo{m: m, p: p}
}

func (m *weightMemo) put(k memoKey, weights []float64) {
	size := int64(8 * len(weights))
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[k]; ok {
		m.removeLocked(el)
	}
	if size > m.capBytes {
		m.gauge.Set(float64(m.bytes))
		return
	}
	for m.bytes+size > m.capBytes {
		m.removeLocked(m.order.Front())
	}
	m.entries[k] = m.order.PushBack(&memoEntry{key: k, weights: weights})
	m.bytes += size
	m.gauge.Set(float64(m.bytes))
}

func (m *weightMemo) take(k memoKey) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		m.misses.Inc()
		return nil
	}
	m.removeLocked(el)
	m.gauge.Set(float64(m.bytes))
	m.hits.Inc()
	return el.Value.(*memoEntry).weights
}

func (m *weightMemo) removeLocked(el *list.Element) {
	e := m.order.Remove(el).(*memoEntry)
	delete(m.entries, e.key)
	m.bytes -= int64(8 * len(e.weights))
}

// boundMemo is a weightMemo narrowed to one run's Params.
type boundMemo struct {
	m *weightMemo
	p shard.Params
}

func (b boundMemo) Put(block int, weights []float64) {
	b.m.put(memoKey{p: b.p, block: block}, weights)
}

func (b boundMemo) Take(block int) []float64 {
	return b.m.take(memoKey{p: b.p, block: block})
}
