package main

import "time"

// layerMetrics fills in the per-layer metrics of a traced run: counts
// from the /metrics deltas of the untraced run, times from the traced
// replay, each time the mean self time per op. A metric whose layer a
// workload does not reach reads 0.
func layerMetrics(m map[string]metric, hr *httpRun, tr *tracedRun, ops int) {
	n := float64(ops)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	perOp := func(d time.Duration) float64 { return us(d) / n }
	perTraced := func(d time.Duration) float64 { return ratio(us(d), float64(tr.tracedOps)) }
	d := func(series string) float64 { return delta(hr.before, hr.after, series) }

	hits, misses := d("adt_cache_hits_total"), d("adt_cache_misses_total")
	m["serve.nf_cache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	pHits, pMisses := d("adt_parse_cache_hits_total"), d("adt_parse_cache_misses_total")
	m["serve.parse_cache.hit_ratio"] = metric{ratio(pHits, pHits+pMisses), "ratio"}

	// Client-side mean request time minus the server's own mean, over
	// every endpoint the run used.
	serverSum := sumPrefix(hr.before, hr.after, "adt_request_duration_seconds_sum")
	serverCount := sumPrefix(hr.before, hr.after, "adt_request_duration_seconds_count")
	clientMean := float64(hr.books.reqTime) / float64(time.Microsecond) / float64(hr.books.reqs)
	m["http.overhead_us"] = metric{clientMean - 1e6*ratio(serverSum, serverCount), "us"}

	compiled, interp := d("adt_engine_compiled_evals_total"), d("adt_engine_interp_evals_total")
	m["rewrite.compiled_share"] = metric{ratio(compiled, compiled+interp), "ratio"}
	m["rewrite.steps_per_op"] = metric{float64(tr.steps) / n, "count"}

	m["serve.handler_us"] = metric{perOp(tr.handler), "us"}
	layers := 0.0
	for _, name := range spanLayers {
		v := perTraced(tr.self[name])
		m[name+"_us"] = metric{v, "us"}
		layers += v
	}
	// Glue compares like with like: the handler time of the same ops the
	// layer replay traced.
	m["serve.glue_us"] = metric{perTraced(tr.handlerTraced) - layers, "us"}

	m["term.interned_per_op"] = metric{float64(tr.interned) / n, "count"}
	m["rewrite.parallel_speedup"] = metric{tr.speedup, "ratio"}

	uploads := d(`adt_requests_total{endpoint="upload",code="201"}`)
	m["registry.retained_kb_per_version"] = metric{ratio(float64(tr.retained)/1024, uploads), "KiB"}
	m["term.retained_bytes_per_op"] = metric{float64(tr.retained) / n, "B"}
	m["gc.cycles_per_kop"] = metric{1000 * tr.gcCycles / n, "count"}
	m["gc.cpu_fraction"] = metric{tr.gcCPUFraction, "ratio"}

	traced, untraced := ratio(1, tr.traced.Seconds()), ratio(1, tr.untraced.Seconds())
	m["trace.ops_per_s"] = metric{traced, "1/s"}
	m["trace.untraced_ops_per_s"] = metric{untraced, "1/s"}
	m["trace.overhead"] = metric{ratio(untraced, traced) - 1, "ratio"}
}

// spanLayers names the replay's spans around public layer calls; each
// reports as <name>_us.
var spanLayers = []string{
	"serve.decode",
	"serve.encode",
	"registry.resolve",
	"lang.parse",
	"term.intern",
	"rewrite.normalize",
	"term.render",
	"registry.register",
	"core.env_rebuild",
	"core.load",
	"rewrite.compile",
	"complete.check",
	"consist.check",
	"complete.dynamic",
	"consist.ground",
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
