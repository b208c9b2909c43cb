package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"howsim/internal/runconfig"
)

// FuzzSimulateBody posts arbitrary bodies to /v1/simulate and /v1/sweep
// on a server whose simulations are stubbed out. Every body must get a
// 2xx or a 4xx answer: a malformed, unknown or oversized request is the
// client's error, and nothing a client sends may panic the handler or
// surface as a 5xx.
func FuzzSimulateBody(f *testing.F) {
	for _, body := range []string{
		`{"task":"select","arch":"active","disks":8}`,
		`{"task":"sort","arch":"cluster","disks":16,"scale":0.01,"faults":"seed=1,fail=2@20ms,replica"}`,
		`{"task":"groupby","arch":"smp","disks":4,"procmode":"parallel","breakdown":true,"ring_spans":2}`,
		`{"task":"dmine","arch":"active","sizes":[4,8,16]}`,
		`{"task":"select","arch":"active","disks":8,"bogus":1}`,
		`{"task":"select","arch":"smp","disks":4} trailing`,
		`{"task":"select","arch":"active","disks":100000,"scale":1e9}`,
		`{"task":"select","arch":"active","sizes":[0,-1]}`,
		`{"task":"` + strings.Repeat("a", maxBodyBytes) + `"}`,
		``, `null`, `[]`, `{`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 2, QueueDepth: 64})
	f.Cleanup(s.Close)
	s.run = func(ctx context.Context, sp *runconfig.Spec) ([]byte, error) { return stubBody(sp), nil }
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/simulate", "/v1/sweep"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if c := rec.Code; c/100 != 2 && c/100 != 4 {
				t.Errorf("POST %s %.200q: status %d: %s", path, body, c, rec.Body.Bytes())
			}
		}
	})
}
