package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// limitServer starts a server with "pts" registered and small caps for
// the bulk routes (the JSON request cap stays at its real 64 KiB), so
// each route's overrun is cheap to send.
func limitServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New(Config{Parallelism: 1})
	srv.limits.upload, srv.limits.append, srv.limits.shard = 4<<10, 4<<10, 4<<10
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(500, 2, 11))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postBody(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// csvRows renders n 2-d CSV rows.
func csvRows(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d.25,%d.5\n", i, i)
	}
	return b.Bytes()
}

// dbs1 encodes n 2-d points as a DBS1 body.
func dbs1(t *testing.T, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := dataset.WriteBinary(&b, dataset.MustInMemory(testPoints(n, 2, 3))); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// jsonPoints renders an append body of n 2-d points.
func jsonPoints(n int) []byte {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("[%d.25,%d.5]", i, i)
	}
	return []byte(`{"points":[` + strings.Join(rows, ",") + `]}`)
}

// TestBodyLimits: every route answers 413 when its body overruns the
// route's cap, and still accepts a body under it.
func TestBodyLimits(t *testing.T) {
	ts := limitServer(t)
	// A parameter object padded past the 64 KiB JSON request cap.
	pad := strings.Repeat("x", maxRequestBody)
	bigJSON := func(fields string) []byte {
		return []byte(`{` + fields + `,"kernel":"` + pad + `"}`)
	}
	cases := []struct {
		name, path, ct string
		body           []byte
		want           int
	}{
		{"sample", "/v1/sample", "application/json", bigJSON(`"dataset":"pts","alpha":1,"size":5`), http.StatusRequestEntityTooLarge},
		{"cluster", "/v1/cluster", "application/json", bigJSON(`"dataset":"pts","alpha":1,"size":5,"k":2`), http.StatusRequestEntityTooLarge},
		{"outliers", "/v1/outliers", "application/json", bigJSON(`"dataset":"pts","radius":0.1,"p":1`), http.StatusRequestEntityTooLarge},
		{"register", "/v1/datasets", "application/json", []byte(`{"name":"f","path":"` + pad + `"}`), http.StatusRequestEntityTooLarge},
		{"upload csv", "/v1/datasets?name=up1", "text/csv", csvRows(1000), http.StatusRequestEntityTooLarge},
		{"upload csv under cap", "/v1/datasets?name=up2", "text/csv", csvRows(50), http.StatusCreated},
		{"upload dbs1", "/v1/datasets?name=up3", "application/octet-stream", dbs1(t, 1000), http.StatusRequestEntityTooLarge},
		{"upload dbs1 under cap", "/v1/datasets?name=up4", "application/octet-stream", dbs1(t, 50), http.StatusCreated},
		{"append json", "/v1/datasets/pts/append", "application/json", jsonPoints(1000), http.StatusRequestEntityTooLarge},
		{"append csv", "/v1/datasets/pts/append", "text/csv", csvRows(1000), http.StatusRequestEntityTooLarge},
		{"append dbs1", "/v1/datasets/pts/append", "application/octet-stream", dbs1(t, 1000), http.StatusRequestEntityTooLarge},
		{"append under cap", "/v1/datasets/pts/append", "text/csv", csvRows(50), http.StatusOK},
		{"stream append", "/v1/streams/s/append", "application/json", jsonPoints(1000), http.StatusRequestEntityTooLarge},
		{"stream append under cap", "/v1/streams/s/append", "application/json", jsonPoints(50), http.StatusOK},
		{"shard partials", shard.PathPartials, "application/json", []byte(`{"shard":"` + strings.Repeat("w", 8<<10) + `"}`), http.StatusRequestEntityTooLarge},
		{"shard draw", shard.PathDraw, "application/json", []byte(`{"shard":"` + strings.Repeat("w", 8<<10) + `"}`), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		status, data := postBody(t, ts.URL+tc.path, tc.ct, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d: %.200s", tc.name, status, tc.want, data)
		}
	}
}
