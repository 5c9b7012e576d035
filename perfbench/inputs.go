package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Request parameters shared by every workload.
const (
	alpha     = 1.0
	size      = 1000 // b, the expected sample size
	kernels   = 500
	clusterK  = 10
	batchRows = 1000 // rows per append batch
)

// layouts is how many datasets a run generates. Each is a different
// random placement of the same cluster shapes, and the cost of sampling
// depends on the placement by up to a fifth; requests rotate over the
// layouts so that a run's figures average that out instead of depending
// on one draw of the seed.
const layouts = 3

// inputs are the rows of one layout; the server only ever sees these
// rows, never the seed they came from.
type inputs struct {
	name string         // the dataset name the rows are served under
	gen  *synth.Labeled // dbsgen -kind varied -n 100000 -d 4 -noise 0.3
	rows []geom.Point
	fp   uint64 // dataset.Fingerprint of rows
	dbs1 []byte // rows encoded as DBS1, for uploads
}

// makeInputs generates the run's layouts from its seed.
func makeInputs(seed uint64) ([]*inputs, error) {
	out := make([]*inputs, layouts)
	for j := range out {
		// The dbsgen defaults for -kind varied: k=10, ratio 10, size ratio 20.
		l := synth.VariedClusters(10, 4, 100000, 10, 20, 0.3, stats.NewRNG(derive(seed, "layout", j)))
		fp, err := dataset.Fingerprint(l.Dataset(), 0)
		if err != nil {
			return nil, err
		}
		enc, err := encode(l.Points)
		if err != nil {
			return nil, err
		}
		out[j] = &inputs{name: "rows" + strconv.Itoa(j), gen: l, rows: l.Points, fp: fp, dbs1: enc}
	}
	return out, nil
}

// shape describes the generated datasets for the run record.
func shape(in []*inputs) string {
	return fmt.Sprintf("%d layouts of synth.VariedClusters k=10 d=4 n=100000 ratio=10 sizeratio=20 noise=0.3 (%d rows each)",
		len(in), len(in[0].rows))
}

// freshBatch draws n new rows from the same clusters (and the same noise
// share) as the base rows, so appended data looks like the data it
// extends. Each seed gives different rows.
func (in *inputs) freshBatch(n int, seed uint64) []geom.Point {
	// Rounding per cluster can fall short of n: draw a little more and
	// keep the first n (the generator shuffles its output).
	scale := 1.02 * float64(n) / float64(len(in.rows))
	cs := make([]synth.Cluster, len(in.gen.Clusters))
	for i, c := range in.gen.Clusters {
		cs[i] = synth.Cluster{Shape: c.Shape, Size: int(math.Round(float64(c.Size) * scale))}
	}
	return synth.Generate(cs, in.gen.Domain, 0.3, stats.NewRNG(seed)).Points[:n]
}

// encode writes points in the DBS1 upload format.
func encode(pts []geom.Point) ([]byte, error) {
	ds, err := dataset.NewInMemory(pts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dataset.WriteBinary(&buf, ds); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// derive gives the i-th request seed of a stream named label: distinct
// across labels and indices, never 0 (the server reads 0 as "default"),
// and below 2^53 so it survives any JSON reader.
func derive(seed uint64, label string, i int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, label)
	x := splitmix(seed ^ h.Sum64() ^ splitmix(uint64(i)+1))
	return x>>11 | 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// commit names the checkout's git commit, or "unknown" when the checkout
// is not a git repository.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
