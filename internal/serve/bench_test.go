package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"algspec/internal/serve"
)

// e1QueueOps64Term spells the E1 benchmark workload (bench_test.go's
// queueWorkload) as one ground term: 64 interleaved add/remove
// operations over the Queue spec, observed through front. This is the
// term the acceptance criterion measures cold vs warm.
func e1QueueOps64Term() string {
	items := []string{"a", "b", "c", "d"}
	state := "new"
	size := 0
	for i := 0; i < 64; i++ {
		if size > 0 && i%3 == 0 {
			state = "remove(" + state + ")"
			size--
		} else {
			state = fmt.Sprintf("add(%s, '%s)", state, items[i%len(items)])
			size++
		}
	}
	return "front(" + state + ")"
}

func benchNormalize(b *testing.B, cacheSize int, prime bool) {
	srv, err := serve.New(serve.Config{Workers: 2, CacheSize: cacheSize})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := `{"spec":"Queue","term":` + jsonString(e1QueueOps64Term()) + `}`
	request := func() string {
		req := httptest.NewRequest("POST", "/v1/normalize", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	if prime {
		if resp := request(); !strings.Contains(resp, `"cached": false`) {
			b.Fatalf("priming request was already cached: %s", resp)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}

// BenchmarkServeNormalizeCold measures the full request path with the
// normal-form cache disabled: JSON decode, parse, canon, pool round
// trip, full normalization, JSON encode.
func BenchmarkServeNormalizeCold(b *testing.B) {
	benchNormalize(b, -1, false)
}

// BenchmarkServeNormalizeWarm measures the same request answered from
// the shared cache (one priming request, then all hits).
func BenchmarkServeNormalizeWarm(b *testing.B) {
	benchNormalize(b, serve.DefaultCacheSize, true)
}

// specEditTemplate is the spec an author edits in BenchmarkServeSpecEdit,
// with its name (and principal sort) abstracted as @T.
const specEditTemplate = `spec @T
  uses Bool, Nat
  ops
    start : -> @T
    inc   : @T -> @T
    undo  : @T -> @T
    value : @T -> Nat
  vars
    c : @T
  axioms
    [u1] undo(start) = error
    [u2] undo(inc(c)) = c
    [v1] value(start) = zero
    [v2] value(inc(c)) = succ(value(c))
end
`

// BenchmarkServeSpecEdit measures one author's edit cycle in process:
// upload a spec under a fresh name (so every iteration compiles a new
// registry version), check it, then run three normalizes pinned to the
// version the upload minted.
func BenchmarkServeSpecEdit(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(path string, in any, wantCode int, out any) {
		body, err := json.Marshal(in)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != wantCode {
			b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			b.Fatal(err)
		}
	}
	terms := []string{"value(inc(inc(start)))", "value(undo(inc(inc(start))))", "undo(start)"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("Counter%d", i)
		src := strings.ReplaceAll(specEditTemplate, "@T", name)
		var up serve.SpecUploadResponse
		post("/v1/specs", serve.SpecUploadRequest{Source: src}, http.StatusCreated, &up)
		var check serve.CheckResponse
		post("/v1/check", serve.CheckRequest{Source: src}, http.StatusOK, &check)
		if !check.OK {
			b.Fatalf("check of %s failed: %+v", name, check)
		}
		for _, t := range terms {
			var nf serve.NormalizeResponse
			post("/v1/normalize", serve.NormalizeRequest{Spec: name, Version: up.Version, Term: t}, http.StatusOK, &nf)
		}
	}
}
