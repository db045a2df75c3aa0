package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shadedSpec's [dead] axiom is shadowed by the earlier catch-all [live],
// so coverage must report it as never firing.
const shadedSpec = `
spec Shade
  uses Nat

  ops
    f : Nat -> Nat

  vars
    n : Nat

  axioms
    [live] f(n) = zero
    [dead] f(zero) = zero
end
`

// TestSubcommandTable drives the thin subcommands through exit-code and
// golden-output assertions in one table.
func TestSubcommandTable(t *testing.T) {
	shade := writeSpec(t, "shade.spec", shadedSpec)
	cases := []struct {
		name     string
		args     []string
		stdin    string
		wantCode int
		wantOut  string   // exact output when non-empty
		contains []string // substring assertions otherwise
		errHas   string
	}{
		{
			name:     "trace golden",
			args:     []string{"trace", "-spec", "Nat", "addN(succ(zero), zero)"},
			wantCode: 0,
			wantOut: "  1  [add2]         addN(succ(zero), zero)\n" +
				"     -> succ(addN(zero, zero))\n" +
				"  2  [add1]         addN(zero, zero)\n" +
				"     -> zero\n" +
				"normal form: succ(zero)\n",
		},
		{
			name:     "trace multi-term headers",
			args:     []string{"trace", "-spec", "Queue", "front(add(new, 'x))", "isEmpty?(new)"},
			wantCode: 0,
			contains: []string{
				"== front(add(new, 'x))",
				"== isEmpty?(new)",
				"normal form: 'x",
				"normal form: true",
				"[1]",
			},
		},
		{
			name:     "trace bad term",
			args:     []string{"trace", "-spec", "Nat", "addN(wat)"},
			wantCode: 1,
		},
		{
			name:     "trace missing spec flag",
			args:     []string{"trace", "succ(zero)"},
			wantCode: 1,
			errHas:   "requires -spec",
		},
		{
			name:     "cover full coverage",
			args:     []string{"cover", "-lib", "-spec", "Queue", "-depth", "3"},
			wantCode: 0,
			contains: []string{
				"axiom coverage of Queue:",
				"all own axioms fired",
				"Queue/1",
			},
		},
		{
			name:     "cover dead axiom",
			args:     []string{"cover", "-lib", shade},
			wantCode: 1,
			contains: []string{
				"axiom coverage of Shade:",
				"1 own axiom(s) NEVER fired",
				"UNFIRED [dead]",
			},
			errHas: "axioms that never fire",
		},
		{
			name:     "cover unknown spec",
			args:     []string{"cover", "-lib", "-spec", "Ghost"},
			wantCode: 1,
			errHas:   "unknown specification",
		},
		{
			name:     "repl quit command",
			args:     []string{"repl"},
			stdin:    "front(add(new, 'k))\n:quit\n",
			wantCode: 0,
			contains: []string{"= 'k"},
		},
		{
			name:     "repl short quit alias",
			args:     []string{"repl"},
			stdin:    ":q\n",
			wantCode: 0,
		},
		{
			name:     "repl quit on EOF",
			args:     []string{"repl"},
			stdin:    "isEmpty?(new)\n",
			wantCode: 0,
			contains: []string{"= true"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runWithInput(t, tc.stdin, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit = %d, want %d (stderr = %q)", code, tc.wantCode, errOut)
			}
			if tc.wantOut != "" && out != tc.wantOut {
				t.Errorf("output mismatch:\n--- got ---\n%s\n--- want ---\n%s", out, tc.wantOut)
			}
			for _, want := range tc.contains {
				if !strings.Contains(out, want) {
					t.Errorf("out missing %q in:\n%s", want, out)
				}
			}
			if tc.errHas != "" && !strings.Contains(errOut, tc.errHas) {
				t.Errorf("stderr missing %q: %q", tc.errHas, errOut)
			}
		})
	}
}

// TestInterleavedFlags proves eval, check, verify and test accept flags
// before or after positional arguments and produce identical output
// either way (test.go's parseInterleaved, now shared by all four).
func TestInterleavedFlags(t *testing.T) {
	shade := writeSpec(t, "shade.spec", shadedSpec)
	cases := []struct {
		name          string
		before, after []string
		wantCode      int
		outContains   string
	}{
		{
			name:        "eval flags after term",
			before:      []string{"eval", "-spec", "Queue", "front(add(new, 'x))"},
			after:       []string{"eval", "front(add(new, 'x))", "-spec", "Queue"},
			wantCode:    0,
			outContains: "'x",
		},
		{
			name:        "eval file and term straddling flags",
			before:      []string{"eval", "-spec", "Shade", shade, "f(succ(zero))"},
			after:       []string{"eval", shade, "-spec", "Shade", "f(succ(zero))"},
			wantCode:    0,
			outContains: "zero",
		},
		{
			name:        "check file before flags",
			before:      []string{"check", "-lib", "-dynamic=false", shade},
			after:       []string{"check", shade, "-lib", "-dynamic=false"},
			wantCode:    0,
			outContains: "Shade",
		},
		{
			name:        "test file before flags",
			before:      []string{"test", "-seed", "7", "-n", "4", "-diff=false", shade},
			after:       []string{"test", shade, "-seed", "7", "-n", "4", "-diff=false"},
			wantCode:    0,
			outContains: "seed 7",
		},
		{
			name:     "verify flags in either order",
			before:   []string{"verify", "-rep", "list", "-depth", "2"},
			after:    []string{"verify", "-depth", "2", "-rep", "list"},
			wantCode: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			codeB, outB, errB := runWith(t, tc.before...)
			codeA, outA, errA := runWith(t, tc.after...)
			if codeB != tc.wantCode || codeA != tc.wantCode {
				t.Fatalf("exit = %d/%d, want %d (stderr %q / %q)", codeB, codeA, tc.wantCode, errB, errA)
			}
			if outB != outA {
				t.Errorf("orderings disagree:\n--- flags first ---\n%s\n--- flags last ---\n%s", outB, outA)
			}
			if tc.outContains != "" && !strings.Contains(outB, tc.outContains) {
				t.Errorf("out missing %q in:\n%s", tc.outContains, outB)
			}
		})
	}

	// verify alone takes no positionals; a stray one is a flag error,
	// not a silently ignored operand.
	code, _, errOut := runWith(t, "verify", "-rep", "list", "bogus")
	if code == 0 || !strings.Contains(errOut, "no positional arguments") {
		t.Errorf("stray verify positional: exit = %d, stderr = %q", code, errOut)
	}
}

// TestSeedDeterminismAcrossWorkers pins the determinism contract the
// parallel drivers promise: with a fixed seed, `adt test` output is
// byte-identical whatever the worker count. The differential report is
// pinned separately because it names its engine matrix after the worker
// count (interp/w4 and so on) — there the invariant is that every
// engine agrees (": OK") at every width, not that the labels match.
func TestSeedDeterminismAcrossWorkers(t *testing.T) {
	base := []string{"test", "-spec", "Queue", "-seed", "12345", "-n", "16", "-diff=false", "-mutate"}
	var first string
	for _, w := range []string{"1", "4", "8"} {
		code, out, errOut := runWith(t, append(base, "-workers", w)...)
		if code != 0 {
			t.Fatalf("-workers %s: exit = %d, stderr = %q", w, code, errOut)
		}
		if first == "" {
			first = out
			continue
		}
		if out != first {
			t.Errorf("-workers %s output differs:\n--- workers 1 ---\n%s\n--- workers %s ---\n%s", w, first, w, out)
		}
	}
	for _, w := range []string{"1", "8"} {
		code, out, errOut := runWith(t, "test", "-spec", "Queue", "-seed", "12345", "-n", "16", "-workers", w)
		if code != 0 {
			t.Fatalf("diff -workers %s: exit = %d, stderr = %q", w, code, errOut)
		}
		if !strings.Contains(out, "differential engines of Queue") || !strings.Contains(out, "seed 12345: OK") {
			t.Errorf("diff -workers %s: engines disagree or report missing:\n%s", w, out)
		}
	}
}

// TestFmtIdempotent proves fmt is a fixpoint on every shipped spec file:
// formatting a formatted file changes nothing, and `fmt -w` on an
// already-canonical tree reports no files.
func TestFmtIdempotent(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			code, once, errOut := runWith(t, "fmt", f)
			if code != 0 {
				t.Fatalf("exit = %d, stderr = %q", code, errOut)
			}
			// Write the formatted output and format again: must be stable.
			tmp := filepath.Join(t.TempDir(), filepath.Base(f))
			if err := os.WriteFile(tmp, []byte(once), 0o644); err != nil {
				t.Fatal(err)
			}
			code, twice, errOut := runWith(t, "fmt", tmp)
			if code != 0 {
				t.Fatalf("second pass: exit = %d, stderr = %q", code, errOut)
			}
			if once != twice {
				t.Errorf("fmt is not idempotent:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
			}
			// And -w on the canonical file reports nothing changed.
			code, out, _ := runWith(t, "fmt", "-w", tmp)
			if code != 0 || strings.Contains(out, tmp) {
				t.Errorf("-w on canonical file: exit = %d, out = %q", code, out)
			}
		})
	}
}
