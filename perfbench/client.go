package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"algspec/internal/serve"
)

// client drives one server over a fixed number of keep-alive
// connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string, conns int) *client {
	return &client{
		url: url,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// books counts the requests a run sent, by "endpoint:code" in the
// server's adt_requests_total labels, plus client-side request time.
type books struct {
	mu       sync.Mutex
	attempts map[string]int64
	reqTime  time.Duration
	reqs     int64
}

func newBooks() *books { return &books{attempts: map[string]int64{}} }

func (b *books) book(endpoint string, code int, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := endpoint + ":transport-error"
	if code != 0 {
		key = fmt.Sprintf("%s:%d", endpoint, code)
	}
	b.attempts[key]++
	b.reqTime += d
	b.reqs++
}

// poster sends one JSON request to the API and decodes a 2xx reply
// into out, returning the status (0 on a transport error). The HTTP
// client and the traced in-process replay both implement it, so both
// run the same checked op sequence.
type poster interface {
	post(endpoint, path string, body []byte, out any) (int, error)
}

// httpPoster posts over the client's connections and books every
// request.
type httpPoster struct {
	c  *client
	bk *books
}

func (p httpPoster) post(endpoint, path string, body []byte, out any) (int, error) {
	start := time.Now()
	resp, err := p.c.http.Post(p.c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		p.bk.book(endpoint, 0, time.Since(start))
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.bk.book(endpoint, resp.StatusCode, time.Since(start))
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, decodeReply(path, resp.StatusCode, data, out)
}

func decodeReply(path string, code int, data []byte, out any) error {
	if code/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", path, code, clip(data))
	}
	return json.Unmarshal(data, out)
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// wire holds an op's request bodies, encoded before timing starts.
type wire struct {
	upload, check []byte
	norms         [][]byte // version left empty for pinned requests
}

func encodeOps(ops []Op) []wire {
	ws := make([]wire, len(ops))
	for i, op := range ops {
		if op.Source != "" {
			ws[i].upload, _ = json.Marshal(serve.SpecUploadRequest{Source: op.Source})
			ws[i].check, _ = json.Marshal(serve.CheckRequest{Source: op.Source})
		}
		for _, nr := range op.Norms {
			if nr.Pinned {
				ws[i].norms = append(ws[i].norms, nil)
				continue
			}
			b, _ := json.Marshal(serve.NormalizeRequest{Spec: nr.Spec, Term: nr.Term, Strategy: nr.Strategy})
			ws[i].norms = append(ws[i].norms, b)
		}
	}
	return ws
}

// runOp issues one op's requests in order and checks every reply
// against the op's oracle. A failed request ends the op.
func runOp(p poster, op *Op, w *wire) error {
	version := ""
	if op.Source != "" {
		var up serve.SpecUploadResponse
		code, err := p.post("upload", "/v1/specs", w.upload, &up)
		if err != nil {
			return err
		}
		if code != http.StatusCreated || !up.Created || !reflect.DeepEqual(up.Specs, op.Specs) {
			return fmt.Errorf("upload: HTTP %d created=%v specs=%v, want 201 created=true specs=%v", code, up.Created, up.Specs, op.Specs)
		}
		version = up.Version
		var ck serve.CheckResponse
		if _, err := p.post("check", "/v1/check", w.check, &ck); err != nil {
			return err
		}
		if err := checkVerdict(&ck, op); err != nil {
			return err
		}
	}
	for j := range op.Norms {
		nr := &op.Norms[j]
		body := w.norms[j]
		if nr.Pinned {
			body, _ = json.Marshal(serve.NormalizeRequest{Spec: nr.Spec, Version: version, Term: nr.Term, Strategy: nr.Strategy})
		}
		var resp serve.NormalizeResponse
		if _, err := p.post("normalize", "/v1/normalize", body, &resp); err != nil {
			return err
		}
		if err := checkNF(nr, resp.NormalForm, resp.Steps); err != nil {
			return err
		}
		if nr.Pinned && resp.Version != version {
			return fmt.Errorf("normalize %s: answered from version %q, pinned %q", nr.Term, resp.Version, version)
		}
	}
	return nil
}

func checkNF(nr *NormReq, nf string, steps int) error {
	if nf != nr.WantNF || steps != nr.WantSteps {
		return fmt.Errorf("%s %s %q: got %s in %d steps, oracle %s in %d steps",
			nr.Spec, nr.Strategy, nr.Term, nf, steps, nr.WantNF, nr.WantSteps)
	}
	return nil
}

func checkVerdict(ck *serve.CheckResponse, op *Op) error {
	want := op.Want
	if len(ck.Specs) != 1 {
		return fmt.Errorf("check: %d spec verdicts, want 1", len(ck.Specs))
	}
	sc := ck.Specs[0]
	got := Verdict{OK: ck.OK, Complete: sc.Complete, Consistent: sc.Consistent}
	if sc.DynamicComplete != nil {
		got.DynamicComplete = *sc.DynamicComplete
	}
	if sc.GroundConsistent != nil {
		got.GroundConsistent = *sc.GroundConsistent
	}
	if sc.Name != op.Specs[0] || sc.DynamicComplete == nil || sc.GroundConsistent == nil || got != *want {
		return fmt.Errorf("check %s: verdict %+v, want %+v", op.Specs[0], got, *want)
	}
	return nil
}

// loopResult is what a closed-loop run measured.
type loopResult struct {
	latency []time.Duration // per op, indexed by op id
	okOps   int
	errs    []string // the first few failures, for the log
	wall    time.Duration
}

// closedLoop runs the op list with conns callers, each sending its next
// op only after the previous one has been answered. Ops are handed out
// in list order.
func (c *client) closedLoop(bk *books, ops []Op, ws []wire, conns int) loopResult {
	res := loopResult{latency: make([]time.Duration, len(ops))}
	var next atomic.Int64
	var okOps atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				err := runOp(httpPoster{c, bk}, &ops[i], &ws[i])
				res.latency[i] = time.Since(t0)
				if err == nil {
					okOps.Add(1)
					continue
				}
				mu.Lock()
				if len(res.errs) < 5 {
					res.errs = append(res.errs, fmt.Sprintf("op %d: %v", i, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.okOps = int(okOps.Load())
	return res
}
