package server

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/kde"
)

// FuzzSampleRequest drives /v1/sample's request path — capped JSON
// decode, normalize, cache key — with arbitrary bodies. It must never
// panic, and every accepted request must come out canonical: the fields
// normalize fills are valid, normalizing again changes nothing, and
// re-encoding the request yields the same cache key (keys may depend on
// what was asked, never on how the JSON spelled it).
func FuzzSampleRequest(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"pts","alpha":1,"size":200,"kernels":64,"seed":42}`,
		`{"dataset":"pts","alpha":-0.5,"size":1}`,
		`{"dataset":"pts","alpha":-0,"size":3,"one_pass":true,"kernel":"gaussian"}`,
		`{"dataset":"pts","alpha":1e308,"size":9223372036854775807,"seed":18446744073709551615}`,
		`{"dataset":"pts","size":5,"kernels":-1}`,
		`{"dataset":"pts","size":5,"kernel":"nope"}`,
		`{"dataset":"pts","size":5,"bogus":1}`,
		`{"dataset":"","size":5}`,
		`{"dataset":"pts","size":5} trailing`,
		`{"dataset":"péts","size":"5"}`,
		`[1,2,3]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", routeSample, strings.NewReader(string(body)))
		sc := srv.decodeSample(httptest.NewRecorder(), r)
		if sc.err != nil {
			return
		}
		q, p := sc.req, sc.p
		if q.Dataset == "" || q.Size <= 0 || p.Kernels < 1 || p.Seed == 0 || kde.KernelByName(p.Kernel) == nil {
			t.Fatalf("accepted non-canonical request %+v / %+v", q, p)
		}
		const fp = 0x0123456789abcdef
		key := q.key(fp, p)
		again := q
		p2, err := again.normalize()
		if err != nil || p2 != p || again != q || again.key(fp, p2) != key {
			t.Fatalf("normalize not idempotent: %+v / %+v -> %+v / %+v (%v)", q, p, again, p2, err)
		}
		raw, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", q, err)
		}
		sc2 := srv.decodeSample(httptest.NewRecorder(), httptest.NewRequest("POST", routeSample, strings.NewReader(string(raw))))
		if sc2.err != nil {
			t.Fatalf("re-encoded request %s rejected: %v", raw, sc2.err)
		}
		if got := sc2.req.key(fp, sc2.p); got != key {
			t.Fatalf("cache key changed across a JSON round trip:\n%s\n%s", key, got)
		}
	})
}

// FuzzParseTenantPolicies drives the -tenants grammar with arbitrary
// specs. It must never panic, and every accepted policy must be usable by
// the fair queue as parsed: a finite positive weight (or 0 when unset,
// which withDefaults turns into 1) and non-negative limits.
func FuzzParseTenantPolicies(f *testing.F) {
	for _, seed := range []string{
		"gold:weight=4,priority=high,inflight=8;bronze:1,priority=low,queue=2;*:weight=2",
		"gold:4",
		"gold:weight=NaN",
		"gold:Inf",
		"gold:weight=1e309",
		"a:inflight=-1",
		"a:queue=3;;b:",
		":",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pols, err := ParseTenantPolicies(spec)
		if err != nil {
			return
		}
		for name, p := range pols {
			if p.Weight != 0 && !(p.Weight > 0 && !math.IsInf(p.Weight, 0)) {
				t.Fatalf("%q: tenant %q accepted with weight %v", spec, name, p.Weight)
			}
			if p.MaxInFlight < 0 || p.MaxQueue < 0 {
				t.Fatalf("%q: tenant %q accepted with negative limits %+v", spec, name, p)
			}
		}
	})
}
