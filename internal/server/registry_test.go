package server

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func testPoints(n, dims int, seed uint64) []geom.Point {
	rng := stats.NewRNG(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func testFile(t *testing.T, n, dims int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := dataset.SaveBinary(path, dataset.MustInMemory(testPoints(n, dims, 7))); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistryLazyOpenAndList(t *testing.T) {
	r := NewRegistry(1)
	if err := r.RegisterPath("pts", testFile(t, 100, 3)); err != nil {
		t.Fatal(err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Open {
		t.Fatalf("before acquire: %+v", infos)
	}
	h, err := r.Acquire("pts")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Dataset().Len() != 100 || h.Dataset().Dims() != 3 {
		t.Errorf("shape %d/%d", h.Dataset().Len(), h.Dataset().Dims())
	}
	infos = r.List()
	if !infos[0].Open || infos[0].Points != 100 {
		t.Errorf("after acquire: %+v", infos)
	}
}

// TestRegistryAcquireResident: the memo-only acquire never opens a file
// or computes a fingerprint — it leases only open entries, and
// MemoFingerprint reports a fingerprint only once a real pass made it.
func TestRegistryAcquireResident(t *testing.T) {
	r := NewRegistry(1)
	if err := r.RegisterPath("pts", testFile(t, 100, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.AcquireResident("nope"); ok {
		t.Error("AcquireResident found an unregistered name")
	}
	if _, ok := r.AcquireResident("pts"); ok {
		t.Error("AcquireResident leased an unopened path entry")
	}
	if infos := r.List(); infos[0].Open {
		t.Fatalf("AcquireResident opened the file: %+v", infos)
	}
	h, err := r.Acquire("pts")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h, ok := r.AcquireResident("pts")
	if !ok {
		t.Fatal("AcquireResident refused an open entry")
	}
	if _, ok := h.MemoFingerprint(); ok {
		t.Error("MemoFingerprint reported a fingerprint no pass computed")
	}
	want, err := h.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.MemoFingerprint(); !ok || got != want {
		t.Errorf("MemoFingerprint = %016x, %v; want %016x", got, ok, want)
	}
	h.Release()
	if err := r.Remove("pts"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.AcquireResident("pts"); ok {
		t.Error("AcquireResident leased a removed entry")
	}
}

func TestRegistryMissingAndDuplicate(t *testing.T) {
	r := NewRegistry(1)
	if _, err := r.Acquire("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if err := r.RegisterPath("pts", filepath.Join(t.TempDir(), "missing.dbs")); err == nil {
		t.Error("registration of a missing file accepted")
	}
	path := testFile(t, 10, 2)
	if err := r.RegisterPath("pts", path); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPath("pts", path); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
	if err := r.RegisterDataset("mem", nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestRegistryFingerprintCached(t *testing.T) {
	r := NewRegistry(1)
	mem := dataset.MustInMemory(testPoints(500, 2, 3))
	if err := r.RegisterDataset("pts", mem); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("pts")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	fp1, err := h.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := h.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint changed: %x vs %x", fp1, fp2)
	}
	if mem.Passes() != 1 {
		t.Errorf("fingerprint consumed %d passes, want 1 (cached)", mem.Passes())
	}
	want, err := dataset.Fingerprint(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != want {
		t.Errorf("fingerprint %x, want %x", fp1, want)
	}
}

func TestRegistryRemoveWhileHeld(t *testing.T) {
	r := NewRegistry(1)
	if err := r.RegisterDataset("pts", dataset.MustInMemory(testPoints(10, 2, 1))); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("pts")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("pts"); err != nil {
		t.Fatal(err)
	}
	// Removed name is gone for new acquires and listings...
	if _, err := r.Acquire("pts"); !errors.Is(err, ErrNotFound) {
		t.Errorf("acquire after remove: err = %v, want ErrNotFound", err)
	}
	if r.Len() != 0 {
		t.Errorf("len = %d after remove, want 0", r.Len())
	}
	// ...but the held handle still works.
	if h.Dataset().Len() != 10 {
		t.Error("held handle broken by Remove")
	}
	h.Release()
	// The name can be reused once fully released.
	if err := r.RegisterDataset("pts", dataset.MustInMemory(testPoints(5, 2, 2))); err != nil {
		t.Fatalf("re-register after release: %v", err)
	}
	if err := r.Remove("pts"); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("pts"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: err = %v, want ErrNotFound", err)
	}
}
