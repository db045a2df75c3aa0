package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"algspec/internal/complete"
	"algspec/internal/consist"
	"algspec/internal/core"
	"algspec/internal/registry"
	"algspec/internal/rewrite"
	"algspec/internal/serve"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// span is one timed call: a name, a start and an end (nanoseconds since
// the tracer's origin), the enclosing span and the op it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the enclosing span; -1 for an op's root
	op         int32
}

// tracer keeps spans in memory. A tracer that is off records nothing
// and reads no clock, so the same replay code runs traced and untraced.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{on: true, origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, op int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), end: -1, parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.origin))
	}
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.name] += time.Duration(s.end - s.start - child[i])
	}
	return out
}

// write saves the spans as tab-separated lines: op, name, parent index,
// start and end in nanoseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.op, s.name, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanScope is the op a poster is currently replaying, and the span its
// calls nest under.
type spanScope struct {
	tr     *tracer
	op     int32
	parent int32
}

func (s *spanScope) begin(name string) int32 { return s.tr.begin(name, s.parent, s.op) }

// handlerPoster serves each request in process through the server's
// public Handler, with one serve.handler span around ServeHTTP.
type handlerPoster struct {
	spanScope
	h http.Handler
}

func (p *handlerPoster) post(endpoint, path string, body []byte, out any) (int, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	sp := p.begin("serve.handler")
	p.h.ServeHTTP(rec, req)
	p.tr.end(sp)
	return rec.Code, decodeReply(path, rec.Code, rec.Body.Bytes(), out)
}

// layerPoster answers each request by calling, in the handler's order,
// the public functions of the layers the handler calls, with a span
// around each. It keeps its own parse and normal-form caches keyed the
// way the server keys them, so it hits and misses exactly where the
// server does.
type layerPoster struct {
	spanScope
	reg     *registry.Registry
	parsed  map[string]*term.Term
	nfs     map[nfKey]nfEntry
	steps   int64
	workers int
}

type nfKey struct {
	t     *term.Term
	strat rewrite.Strategy
}

type nfEntry struct {
	nf    *term.Term
	steps int
}

func newLayerPoster(tr *tracer) (*layerPoster, error) {
	reg, err := registry.New(speclib.Sources)
	if err != nil {
		return nil, err
	}
	// The server computes the base library's certificates at boot.
	for _, name := range reg.Base().Specs {
		reg.Base().Certified(name)
	}
	return &layerPoster{
		spanScope: spanScope{tr: tr},
		reg:       reg,
		parsed:    map[string]*term.Term{},
		nfs:       map[nfKey]nfEntry{},
		workers:   runtime.GOMAXPROCS(0),
	}, nil
}

func (p *layerPoster) post(endpoint, path string, body []byte, out any) (int, error) {
	var code int
	var reply []byte
	var err error
	switch endpoint {
	case "normalize":
		code, reply, err = p.normalize(body)
	case "upload":
		code, reply, err = p.upload(body)
	case "check":
		code, reply, err = p.check(body)
	default:
		return 0, fmt.Errorf("layer replay: no endpoint %q", endpoint)
	}
	if err != nil {
		return code, err
	}
	return code, json.Unmarshal(reply, out)
}

// decode and encode mirror the server's JSON framing: a streaming
// decoder over the body, and an indenting encoder.
func (p *layerPoster) decode(body []byte, v any) error {
	sp := p.begin("serve.decode")
	defer p.tr.end(sp)
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

func (p *layerPoster) encode(v any) []byte {
	sp := p.begin("serve.encode")
	defer p.tr.end(sp)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

func (p *layerPoster) normalize(body []byte) (int, []byte, error) {
	var req serve.NormalizeRequest
	if err := p.decode(body, &req); err != nil {
		return http.StatusBadRequest, nil, err
	}
	sp := p.begin("registry.resolve")
	ver, ok := p.reg.Resolve(req.Version)
	p.tr.end(sp)
	if !ok {
		return http.StatusNotFound, nil, fmt.Errorf("unknown version %q", req.Version)
	}
	spec, ok := ver.Env.Get(req.Spec)
	if !ok {
		return http.StatusNotFound, nil, fmt.Errorf("unknown specification %q", req.Spec)
	}
	strategy := rewrite.Innermost
	if req.Strategy == "outermost" {
		strategy = rewrite.Outermost
	}
	// The server's partition rule: innermost and certified-outermost
	// requests share one partition.
	keyStrat := strategy
	if strategy == rewrite.Outermost && ver.Certified(spec.Name) {
		keyStrat = rewrite.Innermost
	}
	base, err := ver.Env.System(spec.Name)
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	parseKey := ver.ID + "\x00" + spec.Name + "\x00" + req.Term
	canon, ok := p.parsed[parseKey]
	if !ok {
		sp = p.begin("lang.parse")
		t, err := ver.Env.ParseTerm(spec.Name, req.Term)
		p.tr.end(sp)
		if err != nil {
			return http.StatusBadRequest, nil, err
		}
		sp = p.begin("term.intern")
		canon = base.Interner().Canon(t)
		p.tr.end(sp)
		p.parsed[parseKey] = canon
	}
	key := nfKey{canon, keyStrat}
	e, ok := p.nfs[key]
	if !ok {
		var stop atomic.Bool
		opts := []rewrite.Option{rewrite.WithMaxSteps(serverFuel), rewrite.WithStop(&stop)}
		if strategy != rewrite.Innermost {
			opts = append(opts, rewrite.WithStrategy(strategy))
		}
		sp = p.begin("rewrite.normalize")
		f := base.Fork(opts...)
		nf, err := f.Normalize(canon)
		p.tr.end(sp)
		if err != nil {
			return http.StatusUnprocessableEntity, nil, err
		}
		e = nfEntry{nf, f.Stats().Steps}
		p.steps += int64(e.steps)
		p.nfs[key] = e
	}
	sp = p.begin("term.render")
	input, nf := canon.String(), e.nf.String()
	p.tr.end(sp)
	echo := ""
	if req.Version != "" {
		echo = ver.ID
	}
	return http.StatusOK, p.encode(serve.NormalizeResponse{
		Spec: spec.Name, Version: echo, Input: input, NormalForm: nf, Steps: e.steps, Cached: ok,
	}), nil
}

func (p *layerPoster) upload(body []byte) (int, []byte, error) {
	var req serve.SpecUploadRequest
	if err := p.decode(body, &req); err != nil {
		return http.StatusBadRequest, nil, err
	}
	sp := p.begin("registry.register")
	v, created, err := p.reg.Register(req.Source)
	p.tr.end(sp)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	return code, p.encode(serve.SpecUploadResponse{Version: v.ID, Created: created, Specs: v.Specs}), nil
}

// check mirrors the server's /v1/check at its default depth: a fresh
// library environment, the upload loaded on top, the two static and the
// two ground-term checkers per uploaded spec.
func (p *layerPoster) check(body []byte) (int, []byte, error) {
	var req serve.CheckRequest
	if err := p.decode(body, &req); err != nil {
		return http.StatusBadRequest, nil, err
	}
	const depth = 3
	sp := p.begin("core.env_rebuild")
	env := core.NewEnv()
	for _, src := range speclib.Sources {
		if _, err := env.Load(src); err != nil {
			p.tr.end(sp)
			return http.StatusInternalServerError, nil, err
		}
	}
	p.tr.end(sp)
	sp = p.begin("core.load")
	added, err := env.Load(req.Source)
	p.tr.end(sp)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	resp := serve.CheckResponse{OK: true}
	for _, s := range added {
		sc := serve.SpecCheck{Name: s.Name}
		sp = p.begin("complete.check")
		cr := complete.Check(s)
		p.tr.end(sp)
		sp = p.begin("consist.check")
		kr := consist.Check(s)
		p.tr.end(sp)
		sp = p.begin("rewrite.compile")
		sys, err := env.System(s.Name)
		p.tr.end(sp)
		if err != nil {
			return http.StatusInternalServerError, nil, err
		}
		sp = p.begin("complete.dynamic")
		dr := complete.CheckDynamic(s, complete.DynamicConfig{Depth: depth, System: sys, Workers: p.workers})
		p.tr.end(sp)
		sp = p.begin("consist.ground")
		gr := consist.CheckGround(s, consist.GroundConfig{Depth: depth, System: sys, Workers: p.workers})
		p.tr.end(sp)
		dok, gok := dr.OK(), gr.OK()
		sc.Complete, sc.Consistent, sc.DynamicComplete, sc.GroundConsistent = cr.OK(), kr.OK(), &dok, &gok
		for _, r := range []interface {
			OK() bool
			String() string
		}{cr, kr, dr, gr} {
			if !r.OK() {
				sc.Problems = append(sc.Problems, strings.TrimSpace(r.String()))
			}
		}
		if len(sc.Problems) > 0 {
			resp.OK = false
		}
		resp.Specs = append(resp.Specs, sc)
	}
	return http.StatusOK, p.encode(resp), nil
}

// internedTerms sums the interner sizes of every spec each registry
// version compiled for serving: the whole library for the base version,
// the uploaded specs for the others.
func (p *layerPoster) internedTerms() int {
	n := 0
	for _, v := range p.reg.Versions() {
		for _, name := range v.Specs {
			if sys, err := v.Env.System(name); err == nil {
				n += sys.Interner().Size()
			}
		}
	}
	return n
}

// replay runs the op list through a poster on one goroutine, one root
// span per op, and returns each op's wall time and the first few
// failures. With alternate set, only odd ops are traced, so traced and
// untraced ops interleave over the same heap and cache state.
func replay(p poster, scope *spanScope, ops []Op, ws []wire, alternate bool) ([]time.Duration, []string) {
	var errs []string
	walls := make([]time.Duration, len(ops))
	for i := range ops {
		if alternate {
			scope.tr.on = i%2 == 1
		}
		start := time.Now()
		scope.op = int32(i)
		scope.parent = -1
		root := scope.begin("op")
		scope.parent = root
		if err := runOp(p, &ops[i], &ws[i]); err != nil && len(errs) < 5 {
			errs = append(errs, fmt.Sprintf("op %d: %v", i, err))
		}
		scope.tr.end(root)
		walls[i] = time.Since(start)
	}
	return walls, errs
}

// tracedRun is what the in-process traced run measured.
type tracedRun struct {
	self          map[string]time.Duration // layer replay, per span name
	tracedOps     int                      // ops the layer replay traced
	handler       time.Duration            // total serve.handler time
	handlerTraced time.Duration            // serve.handler time of the ops the layer replay traced
	steps         int64                    // engine steps in the layer replay
	interned      int                      // interner growth in the layer replay
	retained      int64                    // in-process server heap growth
	gcCycles      float64
	gcCPUFraction float64
	traced        time.Duration // mean wall time of a traced op
	untraced      time.Duration // mean wall time of an untraced op
	speedup       float64
	errs          []string
}

// runTraced replays the ops in process: first through the server's
// Handler (handler time, GC work and retained heap), then through the
// layer replay on a fresh registry, tracing every other op.
func runTraced(workload string, ops, prime []Op, outDir string) (*tracedRun, error) {
	ws := encodeOps(ops)
	tr := &tracedRun{}
	if err := tr.handlerPass(ops, ws, prime); err != nil {
		return nil, err
	}
	t := newTracer(8 * len(ops))
	lp, err := newLayerPoster(t)
	if err != nil {
		return nil, err
	}
	if len(prime) > 0 {
		lp.tr = &tracer{}
		if _, errs := replay(lp, &lp.spanScope, prime, encodeOps(prime), false); len(errs) > 0 {
			return nil, fmt.Errorf("priming the layer replay: %v", errs)
		}
		lp.tr = t
		lp.steps = 0
	}
	before := lp.internedTerms()
	walls, errs := replay(lp, &lp.spanScope, ops, ws, true)
	tr.errs = append(tr.errs, errs...)
	var sums [2]time.Duration
	for i, w := range walls {
		sums[i%2] += w
	}
	tr.tracedOps = len(ops) / 2
	tr.untraced = sums[0] / time.Duration(len(ops)-tr.tracedOps)
	if tr.tracedOps > 0 {
		tr.traced = sums[1] / time.Duration(tr.tracedOps)
	}
	tr.self = t.selfTimes()
	tr.steps = lp.steps
	tr.interned = lp.internedTerms() - before
	if workload != wlSpecEdit {
		tr.speedup = parallelSpeedup(lp, ops)
	}
	if outDir != "" {
		if err := t.write(filepath.Join(outDir, workload+".spans.tsv")); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// handlerPass replays the ops through an in-process server with the
// CLI's default configuration, measuring handler time, the Go runtime's
// GC work and the heap the server keeps.
func (tr *tracedRun) handlerPass(ops []Op, ws []wire, prime []Op) error {
	srv, err := serve.New(serve.Config{Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer srv.Close()
	t := newTracer(8 * len(ops))
	hp := &handlerPoster{spanScope: spanScope{tr: &tracer{}}, h: srv.Handler()}
	if _, errs := replay(hp, &hp.spanScope, prime, encodeOps(prime), false); len(errs) > 0 {
		return fmt.Errorf("priming the in-process server: %v", errs)
	}
	hp.tr = t
	heap0 := liveHeap()
	gc0 := readGC()
	_, errs := replay(hp, &hp.spanScope, ops, ws, false)
	gc1 := readGC()
	heap1 := liveHeap()
	runtime.KeepAlive(srv)
	tr.errs = append(tr.errs, errs...)
	for _, s := range t.spans {
		if s.name == "serve.handler" {
			tr.handler += time.Duration(s.end - s.start)
			if s.op%2 == 1 {
				tr.handlerTraced += time.Duration(s.end - s.start)
			}
		}
	}
	tr.retained = heap1 - heap0
	tr.gcCycles = gc1.cycles - gc0.cycles
	if cpu := gc1.totalCPU - gc0.totalCPU; cpu > 0 {
		tr.gcCPUFraction = (gc1.gcCPU - gc0.gcCPU) / cpu
	}
	return nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// speedupTerms caps the terms parallelSpeedup normalizes per pass.
const speedupTerms = 8000

// parallelSpeedup times NormalizeAll over the workload's first input
// terms, grouped by spec, at one worker and at two, and returns the
// ratio of the median times. The terms are already interned by the
// replay, so every pass does the same work.
func parallelSpeedup(p *layerPoster, ops []Op) float64 {
	if len(ops) > speedupTerms {
		ops = ops[:speedupTerms]
	}
	groups := map[string][]*term.Term{}
	var order []string
	base := p.reg.Base()
	strategy := map[string]bool{}
	for _, op := range ops {
		for _, nr := range op.Norms {
			t, ok := p.parsed[base.ID+"\x00"+nr.Spec+"\x00"+nr.Term]
			if !ok {
				continue
			}
			if _, seen := groups[nr.Spec]; !seen {
				order = append(order, nr.Spec)
			}
			groups[nr.Spec] = append(groups[nr.Spec], t)
			strategy[nr.Spec] = nr.Strategy == "outermost"
		}
	}
	pass := func(workers int) time.Duration {
		start := time.Now()
		for _, name := range order {
			sys, _ := base.Env.System(name)
			var opts []rewrite.Option
			if strategy[name] {
				opts = append(opts, rewrite.WithStrategy(rewrite.Outermost))
			}
			sys.Fork(opts...).NormalizeAll(groups[name], workers)
		}
		return time.Since(start)
	}
	pass(1) // warm-up
	var one, two []time.Duration
	for i := 0; i < 3; i++ {
		one = append(one, pass(1))
		two = append(two, pass(2))
	}
	return float64(quantile(one, 0.5)) / float64(quantile(two, 0.5))
}
