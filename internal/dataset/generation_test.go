package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// TestFingerprintWorkersTailBlock pins the parallel fingerprint on sizes
// that are NOT multiples of the block width, so the last block is
// partial. The per-block digest layout must make worker count invisible
// — a tail block folded differently under parallelism would fork the
// cache key space between serial and parallel servers.
func TestFingerprintWorkersTailBlock(t *testing.T) {
	bs := parallel.BlockSize(0)
	for _, n := range []int{bs - 1, bs + 1, 3*bs + 1} {
		mem := MustInMemory(testPoints(n, 2))
		want, err := Fingerprint(mem, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			got, err := Fingerprint(mem, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d workers=%d: fingerprint %#x, serial %#x", n, workers, got, want)
			}
		}
	}
}

// appendStages builds an InMemory through a sequence of appends with
// deliberately awkward sizes: deltas that stop mid-block, exactly on a
// block boundary, and span several blocks, so the memo's partial-tail
// resume and block-aligned parallel path are both exercised.
func appendStages(t *testing.T, dims int) (*InMemory, []int) {
	t.Helper()
	bs := parallel.BlockSize(0)
	sizes := []int{bs/2 + 7, bs / 4, bs/4 - 7, 2*bs + 3, 5}
	total := 0
	for _, s := range sizes {
		total += s
	}
	all := testPoints(total, dims)
	mem := MustInMemory(all[:sizes[0]])
	lens := []int{sizes[0]}
	off := sizes[0]
	for _, s := range sizes[1:] {
		if err := mem.Append(all[off : off+s]...); err != nil {
			t.Fatal(err)
		}
		off += s
		lens = append(lens, off)
	}
	return mem, lens
}

// TestGenFingerprintMatchesFullRecompute is the contract the serving
// cache keys rest on: the memoized generational fingerprint is
// bit-identical to a from-scratch Fingerprint over the same prefix, at
// every generation and any parallelism, and therefore also to the
// fingerprint of a fresh dataset registered whole with the same
// contents (content addressing across append histories).
func TestGenFingerprintMatchesFullRecompute(t *testing.T) {
	mem, lens := appendStages(t, 3)
	if got := mem.Generation(); got != uint64(len(lens)-1) {
		t.Fatalf("generation = %d, want %d", got, len(lens)-1)
	}
	for g := range lens {
		for _, workers := range []int{1, 4, 8} {
			got, err := mem.GenFingerprint(uint64(g), workers)
			if err != nil {
				t.Fatal(err)
			}
			view, err := GenView(mem, uint64(g))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Collect(view)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Fingerprint(fresh, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("gen %d workers %d: memoized %#x, from-scratch %#x", g, workers, got, want)
			}
		}
		if ln := mem.GenLen(uint64(g)); ln != lens[g] {
			t.Errorf("GenLen(%d) = %d, want %d", g, ln, lens[g])
		}
	}
}

// TestGenFingerprintDeltaPasses checks the cost model ISSUE.md promises:
// fingerprinting generation g after g-1 is memoized costs passes over
// the delta only — at most two window scans (partial-tail resume plus
// the block-aligned remainder) — and re-fingerprinting any finalized
// generation costs zero passes.
func TestGenFingerprintDeltaPasses(t *testing.T) {
	mem, lens := appendStages(t, 2)
	last := uint64(len(lens) - 1)
	if _, err := mem.GenFingerprint(last-1, 4); err != nil {
		t.Fatal(err)
	}
	before := mem.Passes()
	if _, err := mem.GenFingerprint(last, 4); err != nil {
		t.Fatal(err)
	}
	if got := mem.Passes() - before; got > 2 {
		t.Errorf("advancing one generation cost %d passes, want <= 2 (delta-only)", got)
	}
	before = mem.Passes()
	for g := uint64(0); g <= last; g++ {
		if _, err := mem.GenFingerprint(g, 4); err != nil {
			t.Fatal(err)
		}
	}
	if got := mem.Passes() - before; got != 0 {
		t.Errorf("re-reading memoized fingerprints cost %d passes, want 0", got)
	}
}

// TestMemoFingerprintNeverScans: MemoFingerprint reports only what
// GenFingerprint already finalized — nothing before the first call,
// nothing for a generation appended since — and never costs a pass.
func TestMemoFingerprintNeverScans(t *testing.T) {
	mem, lens := appendStages(t, 2)
	last := uint64(len(lens) - 1)
	if _, ok := mem.MemoFingerprint(0); ok {
		t.Fatal("memo reported a fingerprint no call computed")
	}
	want, err := mem.GenFingerprint(last-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := mem.Passes()
	for g := uint64(0); g < last; g++ {
		if _, ok := mem.MemoFingerprint(g); !ok {
			t.Errorf("generation %d not memoized after computing %d", g, last-1)
		}
	}
	if got, ok := mem.MemoFingerprint(last - 1); !ok || got != want {
		t.Errorf("memo = %016x, %v; want %016x", got, ok, want)
	}
	if _, ok := mem.MemoFingerprint(last); ok {
		t.Errorf("generation %d memoized before any call computed it", last)
	}
	if got := mem.Passes() - before; got != 0 {
		t.Errorf("memo reads cost %d passes, want 0", got)
	}
}

// TestGenViewsFrozen: a generation view taken before an append keeps its
// length and contents; DeltaView covers exactly the appended rows.
func TestGenViewsFrozen(t *testing.T) {
	pts := testPoints(100, 2)
	mem := MustInMemory(pts[:60])
	v0, err := GenView(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Append(pts[60:]...); err != nil {
		t.Fatal(err)
	}
	if v0.Len() != 60 {
		t.Errorf("pre-append view grew to %d", v0.Len())
	}
	dv, err := DeltaView(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(dv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 40 {
		t.Fatalf("delta view has %d points, want 40", got.Len())
	}
	for i, p := range got.Points() {
		if !p.Equal(pts[60+i]) {
			t.Fatalf("delta point %d = %v, want %v", i, p, pts[60+i])
		}
	}
	if _, err := DeltaView(mem, 0); err == nil {
		t.Error("DeltaView(gen 0) should error: generation 0 has no delta")
	}
	if _, err := GenView(mem, 2); err == nil {
		t.Error("GenView beyond current generation should error")
	}
}

// TestSegmentRoundTrip: create → append → append, re-open, and check the
// rows, the segment/generation bookkeeping, and that the segmented
// file's fingerprint matches an in-memory dataset with the same
// contents (the cross-codec content-addressing the cache depends on).
func TestSegmentRoundTrip(t *testing.T) {
	pts := testPoints(1200, 3)
	path := filepath.Join(t.TempDir(), "pts.dbs2")
	sf, err := CreateSegmented(path, MustInMemory(pts[:500]))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(pts[500:900]...); err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(pts[900:]...); err != nil {
		t.Fatal(err)
	}
	if sf.Segments() != 3 || sf.Generation() != 2 || sf.Len() != 1200 {
		t.Fatalf("segments/gen/len = %d/%d/%d, want 3/2/1200", sf.Segments(), sf.Generation(), sf.Len())
	}

	// Re-open both explicitly and through the sniffing Open.
	re, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	sniffed, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sniffed.(*SegmentFile); !ok {
		t.Fatalf("Open sniffed %T, want *SegmentFile", sniffed)
	}
	got, err := Collect(re)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1200 {
		t.Fatalf("reopened length %d, want 1200", got.Len())
	}
	for i, p := range got.Points() {
		if !p.Equal(pts[i]) {
			t.Fatalf("row %d = %v, want %v", i, p, pts[i])
		}
	}

	memFP, err := Fingerprint(MustInMemory(pts), 4)
	if err != nil {
		t.Fatal(err)
	}
	segFP, err := re.GenFingerprint(re.Generation(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if segFP != memFP {
		t.Errorf("segmented fingerprint %#x != in-memory %#x over identical rows", segFP, memFP)
	}
	// Segment boundaries survive reopen as generation history, so a
	// restarted server sees the same generation numbering it had before.
	if re.Generation() != 2 {
		t.Fatalf("reopened generation = %d, want 2", re.Generation())
	}
	for g, want := range []int{500, 900, 1200} {
		if ln := re.GenLen(uint64(g)); ln != want {
			t.Errorf("reopened GenLen(%d) = %d, want %d", g, ln, want)
		}
	}
}

// TestSegmentTruncationDetected: every way a segmented file can be cut
// short must be a loud open error, never a silently shorter dataset.
func TestSegmentTruncationDetected(t *testing.T) {
	pts := testPoints(300, 2)
	mk := func(t *testing.T) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "trunc.dbs2")
		sf, err := CreateSegmented(path, MustInMemory(pts[:200]))
		if err != nil {
			t.Fatal(err)
		}
		if err := sf.Append(pts[200:]...); err != nil {
			t.Fatal(err)
		}
		return path
	}
	truncateTo := func(t *testing.T, path string, size int64) {
		t.Helper()
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
	}
	size := func(t *testing.T, path string) int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	t.Run("mid-segment", func(t *testing.T) {
		path := mk(t)
		truncateTo(t, path, size(t, path)-13) // cut into the last segment's rows
		_, err := OpenSegmented(path)
		if err == nil || !strings.Contains(err.Error(), "truncated mid-segment") {
			t.Fatalf("err = %v, want truncated mid-segment", err)
		}
	})
	t.Run("mid-prefix", func(t *testing.T) {
		path := mk(t)
		// Leave 3 bytes of the second segment's 8-byte count prefix.
		truncateTo(t, path, 8+8+int64(200*2*8)+3)
		_, err := OpenSegmented(path)
		if err == nil || !strings.Contains(err.Error(), "truncated segment prefix") {
			t.Fatalf("err = %v, want truncated segment prefix", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		path := mk(t)
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("NOPE"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := OpenSegmented(path); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("zero-count-segment", func(t *testing.T) {
		path := mk(t)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 8)); err != nil { // count = 0
			t.Fatal(err)
		}
		f.Close()
		_, err = OpenSegmented(path)
		if err == nil || !strings.Contains(err.Error(), "implausible segment count") {
			t.Fatalf("err = %v, want implausible segment count", err)
		}
	})
}

// TestSegmentAppendRollback: a failed append must leave the file exactly
// as it was — still openable, same rows — so retries are safe.
func TestSegmentAppendRollback(t *testing.T) {
	pts := testPoints(50, 2)
	path := filepath.Join(t.TempDir(), "roll.dbs2")
	sf, err := CreateSegmented(path, MustInMemory(pts))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(); err == nil {
		t.Error("empty append accepted")
	}
	if err := sf.Append(geom.Point{1, 2, 3}); err == nil {
		t.Error("dims-mismatched append accepted")
	}
	if sf.Len() != 50 || sf.Generation() != 0 {
		t.Errorf("failed appends changed state: len=%d gen=%d", sf.Len(), sf.Generation())
	}
	re, err := OpenSegmented(path)
	if err != nil {
		t.Fatalf("file not reopenable after failed appends: %v", err)
	}
	if re.Len() != 50 {
		t.Errorf("reopened len = %d, want 50", re.Len())
	}
}
