package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeBenchExport runs the -serve-bench-out path end to end: five
// rows land in the file, the warm row beats cold by the exported factor
// and the 3-replica cluster row beats the 1-replica row by the
// scale-out factor (the export itself fails below either gate).
func TestServeBenchExport(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark export is slow; skipped with -short")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_serve.json")
	var out strings.Builder
	if code := run([]string{"-serve-bench-out", path}, &out); code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	want := []string{"serve_normalize_cold", "serve_normalize_warm", "cluster_rps_1", "cluster_rps_3", "serve_spec_edit"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for i, r := range rows {
		if r.Name != want[i] {
			t.Fatalf("row %d named %q, want %q", i, r.Name, want[i])
		}
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			t.Errorf("row %q has empty measurements: %+v", r.Name, r)
		}
	}
	if ratio := rows[0].NsPerOp / rows[1].NsPerOp; ratio < serveWarmFactor {
		t.Errorf("warm only %.1fx faster than cold, want >= %dx", ratio, serveWarmFactor)
	}
	if scale := rows[2].NsPerOp / rows[3].NsPerOp; scale < clusterScaleFactor {
		t.Errorf("3 replicas only %.1fx the RPS of 1, want >= %dx", scale, clusterScaleFactor)
	}
}
