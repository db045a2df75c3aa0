package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"algspec/internal/complete"
	"algspec/internal/consist"
	"algspec/internal/core"
	"algspec/internal/speclib"
)

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := Generate(wl, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(wl, 7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", wl)
		}
		c, _ := Generate(wl, 8, 300)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", wl)
		}
		if len(a) != 300 {
			t.Errorf("%s: %d ops, want 300", wl, len(a))
		}
	}
	if _, err := Generate("no_such_workload", 1, 1); err == nil {
		t.Error("an unknown workload generated ops")
	}
}

func TestChainTermsAreFreshAndDistinct(t *testing.T) {
	bat := map[string]bool{}
	for _, b := range battery() {
		bat[b.Spec+"\x00"+b.Term] = true
	}
	for _, wl := range []string{wlCold, wlOutermost} {
		ops, _ := Generate(wl, 3, 20000)
		seen := map[string]bool{}
		for _, op := range ops {
			if len(op.Norms) != 1 {
				t.Fatalf("%s op %d: %d normalizes, want 1", wl, op.ID, len(op.Norms))
			}
			key := op.Norms[0].Spec + "\x00" + op.Norms[0].Term
			if bat[key] {
				t.Errorf("%s op %d draws battery term %s", wl, op.ID, op.Norms[0].Term)
			}
			if seen[key] {
				t.Errorf("%s op %d repeats %s", wl, op.ID, op.Norms[0].Term)
			}
			seen[key] = true
		}
	}
}

func TestSpecEditSourcesAreDistinct(t *testing.T) {
	ops, _ := Generate(wlSpecEdit, 5, 2000)
	seen := map[string]int{}
	for _, op := range ops {
		if prev, ok := seen[op.Source]; ok {
			t.Fatalf("ops %d and %d upload the same source", prev, op.ID)
		}
		seen[op.Source] = op.ID
		if len(op.Norms) != normsPerEdit {
			t.Errorf("op %d: %d normalizes, want %d", op.ID, len(op.Norms), normsPerEdit)
		}
	}
}

// Every generated input must have an answer, and the server must be
// able to compute it within its default fuel.
func TestGeneratedInputsHaveOracles(t *testing.T) {
	for _, wl := range workloadNames {
		ops, _ := Generate(wl, 11, 400)
		if err := computeOracles(ops); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
	}
}

// The templates' known verdicts are what the checkers say, at the
// server's default depth.
func TestTemplateVerdicts(t *testing.T) {
	sawNotOK := false
	for _, tp := range templates {
		env := core.NewEnv()
		env.MustLoad(speclib.Sources...)
		added, err := env.Load(tp.instantiate(tp.name + "0"))
		if err != nil {
			t.Fatalf("%s: %v", tp.name, err)
		}
		sp := added[0]
		sys, err := env.System(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		got := Verdict{
			Complete:         complete.Check(sp).OK(),
			Consistent:       consist.Check(sp).OK(),
			DynamicComplete:  complete.CheckDynamic(sp, complete.DynamicConfig{Depth: 3, System: sys}).OK(),
			GroundConsistent: consist.CheckGround(sp, consist.GroundConfig{Depth: 3, System: sys}).OK(),
		}
		got.OK = got.Complete && got.Consistent && got.DynamicComplete && got.GroundConsistent
		if got != tp.verdict {
			t.Errorf("%s: checkers say %+v, template records %+v", tp.name, got, tp.verdict)
		}
		sawNotOK = sawNotOK || !got.OK
	}
	if !sawNotOK {
		t.Error("no template fails its check; spec_edit must send some that do")
	}
}

func TestReconcile(t *testing.T) {
	before := map[string]int64{"normalize:200": 5}
	after := map[string]int64{"normalize:200": 9, "upload:201": 2}
	bk := newBooks()
	for i := 0; i < 4; i++ {
		bk.book("normalize", 200, time.Millisecond)
	}
	bk.book("upload", 201, time.Millisecond)
	bk.book("upload", 201, time.Millisecond)
	if errs := reconcile(bk, before, after); len(errs) != 0 {
		t.Errorf("matching books reported %v", errs)
	}
	bk.book("check", 200, time.Millisecond)
	if errs := reconcile(bk, before, after); len(errs) != 1 {
		t.Errorf("a request the server never counted: got %v", errs)
	}
	if errs := reconcile(newBooks(), before, after); len(errs) != 2 {
		t.Errorf("requests the client never sent: got %v", errs)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the
// benchmark emits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	wls := append([]string(nil), workloadNames...)
	sort.Strings(wls)
	if got := names(cfg.Workloads); !reflect.DeepEqual(got, wls) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, wls)
	}
	keys := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	e2e := keys(endToEndMetrics([]*httpRun{{}}))
	if got := names(cfg.EndToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", got, e2e)
	}
	m := map[string]metric{}
	layerMetrics(m, &httpRun{books: newBooks()}, &tracedRun{}, 1)
	if got := names(cfg.PerLayer); !reflect.DeepEqual(got, keys(m)) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", got, keys(m))
	}
}

func TestQuantile(t *testing.T) {
	ms := time.Millisecond
	ds := []time.Duration{50 * ms, 10 * ms, 40 * ms, 20 * ms, 30 * ms}
	if q := quantile(ds, 0.5); q != 30*ms {
		t.Errorf("median = %v, want 30ms", q)
	}
	if q := quantile(ds, 0.9); q != 46*ms {
		t.Errorf("p90 = %v, want 46ms", q)
	}
}
