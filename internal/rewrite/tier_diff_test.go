package rewrite_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"algspec/internal/core"
	"algspec/internal/gen"
	"algspec/internal/rewrite"
	"algspec/internal/spec"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// diffEnv loads the whole embedded library plus every shipped .spec file,
// so the differential test quantifies over all bundled specifications.
func diffEnv(t *testing.T) (*core.Env, []string) {
	t.Helper()
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	names := append([]string(nil), speclib.Names...)
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no shipped .spec files found")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sps, err := env.Load(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, sp := range sps {
			names = append(names, sp.Name)
		}
	}
	return env, names
}

// groundWorkload builds a deterministic list of ground extension terms for
// the spec: exhaustive instantiations at a small depth plus random deeper
// terms, both from the generator the checkers use.
func groundWorkload(t *testing.T, sp *spec.Spec) []*term.Term {
	t.Helper()
	g := gen.New(sp, gen.Config{})
	var items []*term.Term
	for _, op := range sp.Sig.Ops() {
		if op.Native || sp.IsConstructor(op.Name) {
			continue
		}
		vars := make([]*term.Term, len(op.Domain))
		for i, d := range op.Domain {
			vars[i] = term.NewVar(fmt.Sprintf("x%d", i), d)
		}
		for _, inst := range g.Instantiations(vars, 3, 80) {
			args := make([]*term.Term, len(vars))
			for i, v := range vars {
				args[i] = inst[v.Sym]
			}
			items = append(items, term.NewOp(op.Name, op.Range, args...))
		}
		// Deeper random arguments extend coverage past the exhaustive
		// bound; the generator's fixed seed keeps the workload stable.
		for k := 0; k < 20; k++ {
			args := make([]*term.Term, len(op.Domain))
			ok := true
			for i, d := range op.Domain {
				a, err := g.Random(d, 5)
				if err != nil {
					ok = false
					break
				}
				args[i] = a
			}
			if ok {
				items = append(items, term.NewOp(op.Name, op.Range, args...))
			}
		}
	}
	return items
}

// TestDiscTreeDifferential proves the machine tier semantically
// identical to the reference interpreter (per-rule MatchBind) over every
// bundled specification and an exhaustive-plus-random ground workload:
// both tiers must agree on acceptance, on the normal form, and on the
// exact step and rule-fire counts of every single term.
func TestDiscTreeDifferential(t *testing.T) {
	env, names := diffEnv(t)
	for _, name := range names {
		sp := env.MustGet(name)
		t.Run(name, func(t *testing.T) {
			mach := rewrite.New(sp)
			ref := mach.Fork(rewrite.WithoutCompiledTier())
			if mach.Tier() != "compiled" || ref.Tier() != "interp" {
				t.Fatalf("tiers resolved to %s/%s, want compiled/interp", mach.Tier(), ref.Tier())
			}
			items := groundWorkload(t, sp)
			if len(items) == 0 {
				t.Skipf("no ground extension terms for %s", name)
			}
			for _, it := range items {
				mBefore, rBefore := mach.Stats(), ref.Stats()
				gotNF, gotErr := mach.Normalize(it)
				wantNF, wantErr := ref.Normalize(it)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error mismatch: compiled=%v interp=%v", it, gotErr, wantErr)
				}
				if gotErr == nil && !gotNF.Equal(wantNF) {
					t.Fatalf("%s: normal forms differ:\n  compiled: %s\n  interp:   %s", it, gotNF, wantNF)
				}
				mAfter, rAfter := mach.Stats(), ref.Stats()
				if ms, rs := mAfter.Steps-mBefore.Steps, rAfter.Steps-rBefore.Steps; ms != rs {
					t.Fatalf("%s: step counts differ: compiled=%d interp=%d", it, ms, rs)
				}
				if mf, rf := mAfter.RuleFires-mBefore.RuleFires, rAfter.RuleFires-rBefore.RuleFires; mf != rf {
					t.Fatalf("%s: rule fires differ: compiled=%d interp=%d", it, mf, rf)
				}
			}
		})
	}
}

// TestDiscTreePriorityOverlap pins the priority rule down on a spec whose
// axioms overlap: f(zero) is matched by both [hit] and the later
// catch-all [any]; the earlier axiom must win, on both tiers. The
// interpreter's trace names the rule; the machine cannot trace, so its
// row checks the normal form and that exactly one rule fired.
func TestDiscTreePriorityOverlap(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat)
	if _, err := env.Load(`
spec Pri
  uses Nat

  ops
    f : Nat -> Nat

  vars
    n : Nat

  axioms
    [hit] f(zero) = zero
    [any] f(n) = succ(n)
end
`); err != nil {
		t.Fatal(err)
	}
	sp := env.MustGet("Pri")
	zero := term.NewOp("zero", "Nat")
	one := term.NewOp("succ", "Nat", zero)
	for _, row := range []struct{ name, tier string }{
		{"compiled", "compiled"},
		{"matchbind", "interp"}, // the reference interpreter, selected here by tracing
	} {
		t.Run(row.name, func(t *testing.T) {
			var fired []string
			sys := rewrite.New(sp)
			if row.tier == "interp" {
				sys = rewrite.New(sp, rewrite.WithTrace(func(ts rewrite.TraceStep) {
					fired = append(fired, ts.Rule.Label)
				}))
			}
			check := func(in, want *term.Term, label string) {
				t.Helper()
				fired = fired[:0]
				sys.ResetSteps()
				if nf := sys.MustNormalize(in); !nf.Equal(want) {
					t.Fatalf("%s = %s, want %s", in, nf, want)
				}
				if n := sys.Stats().RuleFires; n != 1 {
					t.Fatalf("%s fired %d rules, want 1", in, n)
				}
				if row.tier == "interp" && (len(fired) != 1 || fired[0] != label) {
					t.Fatalf("%s fired %v, want exactly [%s]", in, fired, label)
				}
			}
			check(term.NewOp("f", "Nat", zero), zero, "hit") // the earlier axiom must win
			check(term.NewOp("f", "Nat", one), term.NewOp("succ", "Nat", one), "any")
			if sys.Tier() != row.tier {
				t.Fatalf("ran on tier %s, want %s", sys.Tier(), row.tier)
			}
		})
	}
}

// TestDeepTerminatingChain runs a terminating computation that nests far
// deeper than any parsed input on both tiers: addN recurses under succ, so
// addN(A, zero) with A = addN(B,B), B = addN(C,C), C = addN(D,D) and
// D = succ^9000(zero) holds 72000 rule applications open at once. Both
// tiers must reach succ^72000(zero) in the same number of steps; the
// input is a tree, so each copy of C is evaluated four times and of B
// twice.
func TestDeepTerminatingChain(t *testing.T) {
	env := core.NewEnv()
	env.MustLoad(speclib.Bool, speclib.Nat)
	mach := rewrite.New(env.MustGet("Nat"))
	ref := mach.Fork(rewrite.WithoutCompiledTier())
	zero := term.NewOp("zero", "Nat")
	d := zero
	for range 9000 {
		d = term.NewOp("succ", "Nat", d)
	}
	add := func(a, b *term.Term) *term.Term { return term.NewOp("addN", "Nat", a, b) }
	c := add(d, d)
	b := add(c, c)
	in := add(add(b, b), zero)
	var nfs [2]*term.Term
	for i, sys := range []*rewrite.System{mach, ref} {
		nf, err := sys.Normalize(in)
		if err != nil {
			t.Fatalf("%s tier: %v", sys.Tier(), err)
		}
		nfs[i] = nf
	}
	if !nfs[0].Equal(nfs[1]) {
		t.Fatal("normal forms differ between the tiers")
	}
	n := 0
	for t := nfs[0]; t.Sym == "succ"; t = t.Args[0] {
		n++
	}
	if n != 72000 {
		t.Fatalf("normal form is succ^%d(...), want succ^72000(zero)", n)
	}
	const want = 4*9001 + 2*18001 + 36001 + 72001
	if ms, rs := mach.Steps(), ref.Steps(); ms != rs || ms != want {
		t.Fatalf("steps: compiled=%d interp=%d, want both %d", ms, rs, want)
	}
}
