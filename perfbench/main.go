// Command perfbench is the repository benchmark: it measures `adt serve`
// end to end on four workloads, and layer by layer in a separate traced
// run.
//
// An untraced run (--trace 0) boots the real adt binary as a child
// process with default flags, drives it from this one process in a
// closed loop with one connection per core, and reports the end-to-end
// metrics. Every reply is checked against an answer computed offline,
// and the requests sent per endpoint must equal the server's
// adt_requests_total deltas exactly, or the run fails.
//
// A traced run (--trace 1) repeats the untraced run for its /metrics
// counters, then replays the same ops in process through the public
// functions of each layer with a span around every call, and reports the
// per-layer metrics. Its engine step count must equal the server's
// adt_engine_steps_total delta exactly, or the run fails.
//
// perfbench/run.sh builds the benchmark and adt from the checkout and
// runs this command with the flags below; see perfbench/LAYERS.md for
// the layer-to-metric predictions and the known blind spots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"algspec/internal/loadgen"
)

// An untraced run is a number of rounds, each on a freshly booted
// server that serves one consecutive share of the op list. Every round
// boots (and primes) a server bootsPerRound times to measure set-up
// time and keeps the last one for its timed phase. Rounds bound the
// memory a server accumulates, and the run reports the median round.
// spec_edit gets more, smaller rounds: every upload stays in the
// server's heap, and the large GC cycles that a big heap brings make a
// single round's cost lumpy.
var rounds = map[string]int{wlWarm: 3, wlCold: 3, wlOutermost: 3, wlSpecEdit: 8}

const bootsPerRound = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "seed of the op list")
	seconds := flag.Int("seconds", 10, "run length; sizes the op list at the workload's nominal rate")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	adt := flag.String("adt", "", "path of the adt binary to serve")
	outDir := flag.String("out", "", "directory for the traced run's span file (empty: not written)")
	flag.Parse()
	if *adt == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -adt, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1, *adt, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, adt, outDir string) (*result, error) {
	rate, ok := opsPerSecond[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	ops, err := Generate(workload, seed, rate*seconds)
	if err != nil {
		return nil, err
	}
	nr := rounds[workload]
	if traced {
		// The traced run measures the first round only.
		ops, nr = ops[:len(ops)/nr], 1
	}
	if err := computeOracles(ops); err != nil {
		return nil, fmt.Errorf("generated input has no oracle: %w", err)
	}
	prime, err := primeOps(workload)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(ops), Correct: true}
	var hrs []*httpRun
	for r := 0; r < nr; r++ {
		chunk := ops[len(ops)*r/nr : len(ops)*(r+1)/nr]
		boots := bootsPerRound
		if traced {
			boots = 1
		}
		hr, err := runHTTP(adt, chunk, prime, boots)
		if err != nil {
			return nil, err
		}
		for _, e := range append(hr.errs, hr.booksErrs...) {
			fmt.Fprintf(os.Stderr, "perfbench: round %d: %s\n", r+1, e)
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d: %d ops in %.2fs, server CPU %.2fs, peak RSS %.0f MiB\n",
			r+1, len(chunk), hr.wall.Seconds(), hr.cpu.Seconds(), float64(hr.peakRSS)/(1<<20))
		res.Correct = res.Correct && hr.okOps == len(chunk) && len(hr.booksErrs) == 0
		res.Failed += len(chunk) - hr.okOps
		hrs = append(hrs, hr)
	}
	if !traced {
		res.Metrics = endToEndMetrics(hrs)
		return res, nil
	}
	hr := hrs[0]
	lr, err := runTraced(workload, ops, prime, outDir)
	if err != nil {
		return nil, err
	}
	for _, e := range lr.errs {
		fmt.Fprintln(os.Stderr, "perfbench: traced replay:", e)
	}
	res.Correct = res.Correct && len(lr.errs) == 0
	serverSteps := int64(delta(hr.before, hr.after, "adt_engine_steps_total"))
	if lr.steps != serverSteps {
		fmt.Fprintf(os.Stderr, "perfbench: replay took %d engine steps, the server counted %d\n", lr.steps, serverSteps)
		res.Correct = false
	}
	res.Metrics = map[string]metric{}
	layerMetrics(res.Metrics, hr, lr, len(ops))
	return res, nil
}

// endToEndMetrics are the metrics of an untraced run: per-round
// throughput, CPU and peak memory as the median over the rounds,
// latency percentiles over every op of every round.
func endToEndMetrics(hrs []*httpRun) map[string]metric {
	var rates, cpus, rss []float64
	var lat, setups []time.Duration
	ops, okOps := 0, 0
	for _, hr := range hrs {
		n := len(hr.latency)
		rates = append(rates, ratio(float64(n), hr.wall.Seconds()))
		cpus = append(cpus, ratio(ms(hr.cpu), float64(n)))
		rss = append(rss, float64(hr.peakRSS)/(1<<20))
		lat = append(lat, hr.latency...)
		setups = append(setups, hr.setups...)
		ops, okOps = ops+n, okOps+hr.okOps
	}
	return map[string]metric{
		"ops_per_s":     {medianOf(rates), "1/s"},
		"p50_ms":        {ms(quantile(lat, 0.50)), "ms"},
		"p90_ms":        {ms(quantile(lat, 0.90)), "ms"},
		"ok_ratio":      {ratio(float64(okOps), float64(ops)), "ratio"},
		"setup_s":       {quantile(setups, 0.5).Seconds(), "s"},
		"peak_rss_mb":   {medianOf(rss), "MiB"},
		"cpu_ms_per_op": {medianOf(cpus), "ms"},
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch {
	case len(s) == 0:
		return 0
	case len(s)%2 == 1:
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// primeOps is the traffic a workload sends before timing starts: the
// whole golden battery for normalize_warm, so every timed request hits
// the normal-form cache; nothing otherwise.
func primeOps(workload string) ([]Op, error) {
	if workload != wlWarm {
		return nil, nil
	}
	var ops []Op
	for i, nr := range battery() {
		ops = append(ops, Op{ID: i, Norms: []NormReq{nr}})
	}
	return ops, computeOracles(ops)
}

// httpRun is what the untraced run against the child server measured.
type httpRun struct {
	loopResult
	setups        []time.Duration
	before, after map[string]float64 // /metrics around the timed phase
	peakRSS       int64
	cpu           time.Duration // server CPU during the timed phase
	books         *books
	booksErrs     []string
}

func runHTTP(adt string, ops, prime []Op, boots int) (*httpRun, error) {
	conns := runtime.NumCPU()
	hr := &httpRun{}
	var srv *server
	for k := 0; k < boots; k++ {
		s, d, err := bootServer(adt)
		if err != nil {
			return nil, err
		}
		if len(prime) > 0 {
			t0 := time.Now()
			c := newClient(s.url, 1)
			lr := c.closedLoop(newBooks(), prime, encodeOps(prime), 1)
			c.close()
			d += time.Since(t0)
			if lr.okOps != len(prime) {
				s.stop()
				return nil, fmt.Errorf("priming failed: %v", lr.errs)
			}
		}
		hr.setups = append(hr.setups, d)
		if k < boots-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	c := newClient(srv.url, conns)
	defer c.close()
	ws := encodeOps(ops)
	before, err := scrape(c.http, srv.url)
	if err != nil {
		return nil, err
	}
	_, cpu0, err := srv.procStats()
	if err != nil {
		return nil, err
	}
	hr.books = newBooks()
	hr.loopResult = c.closedLoop(hr.books, ops, ws, conns)
	rss, cpu1, err := srv.procStats()
	if err != nil {
		return nil, err
	}
	hr.peakRSS, hr.cpu = rss, cpu1-cpu0
	after, err := scrape(c.http, srv.url)
	if err != nil {
		return nil, err
	}
	hr.before, hr.after = parseExposition(before), parseExposition(after)
	hr.booksErrs = reconcile(hr.books, loadgen.ParseRequestsTotal(before), loadgen.ParseRequestsTotal(after))
	return hr, nil
}

// reconcile compares the requests the client sent, per endpoint and
// status, with the server's adt_requests_total deltas (both keyed
// "endpoint:code"), in both directions. Any difference is an error.
func reconcile(bk *books, before, after map[string]int64) []string {
	var errs []string
	server := map[string]int64{}
	for key, v := range after {
		if d := v - before[key]; d != 0 {
			server[key] = d
		}
	}
	for key, n := range bk.attempts {
		if server[key] != n {
			errs = append(errs, fmt.Sprintf("books: client sent %d %s request(s), server counted %d", n, key, server[key]))
		}
	}
	for key, n := range server {
		if _, ok := bk.attempts[key]; !ok {
			errs = append(errs, fmt.Sprintf("books: server counted %d %s request(s) the client never sent", n, key))
		}
	}
	sort.Strings(errs)
	return errs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}
