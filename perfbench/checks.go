package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"
)

// sampleReq is the /v1/sample (and, with K, /v1/cluster) request body.
type sampleReq struct {
	Dataset string  `json:"dataset"`
	Alpha   float64 `json:"alpha"`
	Size    int     `json:"size"`
	Kernels int     `json:"kernels"`
	Seed    uint64  `json:"seed"`
	K       int     `json:"k,omitempty"`
}

func sampleBody(ds string, seed uint64) []byte {
	body, _ := json.Marshal(sampleReq{Dataset: ds, Alpha: alpha, Size: size, Kernels: kernels, Seed: seed})
	return body
}

func clusterBody(ds string, seed uint64) []byte {
	body, _ := json.Marshal(sampleReq{Dataset: ds, Alpha: alpha, Size: size, Kernels: kernels, Seed: seed, K: clusterK})
	return body
}

// sampleResp mirrors the /v1/sample success body field for field, so the
// replay can also encode what the server encodes.
type sampleResp struct {
	Dataset     string        `json:"dataset"`
	Fingerprint string        `json:"fingerprint"`
	Alpha       float64       `json:"alpha"`
	Norm        float64       `json:"norm"`
	DataPasses  int           `json:"data_passes"`
	Saturated   int           `json:"saturated"`
	Count       int           `json:"count"`
	Points      []samplePoint `json:"points"`
}

type samplePoint struct {
	P []float64 `json:"p"`
	W float64   `json:"w"`
}

// countBand is the two-sided Chernoff band around b for |S|, a sum of
// independent Bernoulli coins with mean b (Property 2): a correct sampler
// leaves it with probability at most 1e-9.
func countBand() (lo, hi int) {
	eps := math.Sqrt(3 * math.Log(2/1e-9) / size)
	return int(math.Floor(size * (1 - eps))), int(math.Ceil(size * (1 + eps)))
}

func fpHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// checkSample validates a /v1/sample body against the content
// fingerprint of the rows it must have been drawn from, and returns the
// decoded body.
func checkSample(body []byte, wantFP uint64) (*sampleResp, error) {
	r, err := decodeSample(body)
	if err != nil {
		return nil, err
	}
	return r, r.check(fpHex(wantFP))
}

func decodeSample(body []byte) (*sampleResp, error) {
	var r sampleResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding sample body: %w", err)
	}
	return &r, nil
}

// check validates a decoded sample: it names the expected fingerprint,
// its count matches its points, the count falls in the Chernoff band,
// and every point is a 4-d point with an inverse-probability weight.
func (r *sampleResp) check(wantFP string) error {
	if r.Fingerprint != wantFP {
		return fmt.Errorf("fingerprint %s, want %s", r.Fingerprint, wantFP)
	}
	if r.Count != len(r.Points) {
		return fmt.Errorf("count %d but %d points", r.Count, len(r.Points))
	}
	if lo, hi := countBand(); r.Count < lo || r.Count > hi {
		return fmt.Errorf("count %d outside the Chernoff band [%d, %d] around b=%d", r.Count, lo, hi, size)
	}
	for i, p := range r.Points {
		if len(p.P) != 4 || !(p.W >= 1) {
			return fmt.Errorf("point %d malformed (dims %d, weight %v)", i, len(p.P), p.W)
		}
	}
	return nil
}

type clusterResp struct {
	Fingerprint string `json:"fingerprint"`
	K           int    `json:"k"`
	SampleSize  int    `json:"sample_size"`
	Clusters    []struct {
		Size int         `json:"size"`
		Mean []float64   `json:"mean"`
		Reps [][]float64 `json:"reps"`
	} `json:"clusters"`
}

// checkCluster validates a /v1/cluster body clustered from the sample
// whose size the preceding /v1/sample of the same seed returned.
func checkCluster(body []byte, wantFP uint64, sampleCount int) error {
	var r clusterResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding cluster body: %w", err)
	}
	if r.Fingerprint != fpHex(wantFP) {
		return fmt.Errorf("fingerprint %s, want %s", r.Fingerprint, fpHex(wantFP))
	}
	if r.K != clusterK || len(r.Clusters) != clusterK {
		return fmt.Errorf("k %d with %d clusters, want %d", r.K, len(r.Clusters), clusterK)
	}
	if r.SampleSize != sampleCount {
		return fmt.Errorf("clustered %d sample points, the sample of the same seed has %d", r.SampleSize, sampleCount)
	}
	total := 0
	for _, c := range r.Clusters {
		if c.Size < 1 || len(c.Mean) != 4 || len(c.Reps) == 0 {
			return fmt.Errorf("malformed cluster %+v", c)
		}
		total += c.Size
	}
	if total != r.SampleSize {
		return fmt.Errorf("cluster sizes sum to %d, want %d", total, r.SampleSize)
	}
	return nil
}

type appendResp struct {
	Generation  uint64 `json:"generation"`
	Points      int    `json:"points"`
	Added       int    `json:"added"`
	Fingerprint string `json:"fingerprint"`
	WindowStart int    `json:"window_start"`
	WindowLen   int    `json:"window_len"`
}

func decodeAppend(body []byte) (*appendResp, error) {
	var r appendResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding append body: %w", err)
	}
	return &r, nil
}

// post sends a request and turns a non-2xx status into an error that
// carries the server's message.
func post(c *client, path, ctype string, body []byte) ([]byte, error) {
	return call(c, http.MethodPost, path, ctype, body)
}

// timedPost is post that also returns the request's round-trip time.
func timedPost(c *client, path, ctype string, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := post(c, path, ctype, body)
	return resp, time.Since(t0), err
}

func call(c *client, method, path, ctype string, body []byte) ([]byte, error) {
	code, resp, err := c.do(method, path, ctype, body)
	if err != nil {
		return nil, err
	}
	if code < 200 || code > 299 {
		msg := bytes.TrimSpace(resp)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, fmt.Errorf("status %d: %s", code, msg)
	}
	return resp, nil
}

const binaryType = "application/octet-stream"
