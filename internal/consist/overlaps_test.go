package consist_test

import (
	"fmt"
	"slices"
	"testing"

	"algspec/internal/consist"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/speclib"
	"algspec/internal/subst"
	"algspec/internal/term"
)

// bruteOverlaps is the reference superposition: rename both axioms
// apart, then try to unify inner's LHS at every non-if operation
// position of outer's LHS with the same head (the root skipped for a
// self-overlap). Overlaps must return exactly these pairs, in this
// order; its head prune may only skip work whose result is empty.
func bruteOverlaps(outer, inner *spec.Axiom, same bool) []*consist.CriticalPair {
	var out []*consist.CriticalPair
	oLHS := subst.RenameApart(outer.LHS, 1)
	oRHS := subst.RenameApart(outer.RHS, 1)
	iLHS := subst.RenameApart(inner.LHS, 2)
	iRHS := subst.RenameApart(inner.RHS, 2)
	for _, p := range oLHS.Positions() {
		if same && len(p) == 0 {
			continue
		}
		sub := oLHS.At(p)
		if sub.Kind != term.Op || sub.IsIf() || sub.Sym != iLHS.Sym {
			continue
		}
		u, ok := subst.Unify(sub, iLHS)
		if !ok {
			continue
		}
		overlap := u.Apply(oLHS)
		right := overlap.ReplaceAt(p, u.Apply(iRHS))
		if right == nil {
			continue
		}
		out = append(out, &consist.CriticalPair{
			Outer: outer, Inner: inner, Overlap: overlap,
			Path: append(term.Path(nil), p...), Left: u.Apply(oRHS), Right: right,
		})
	}
	return out
}

func renderPairs(cps []*consist.CriticalPair) []string {
	out := make([]string, len(cps))
	for i, cp := range cps {
		out[i] = fmt.Sprintf("%p/%p %s at %v: %s vs %s", cp.Outer, cp.Inner, cp.Overlap, cp.Path, cp.Left, cp.Right)
	}
	return out
}

func checkSameOverlaps(t *testing.T, what string, outer, inner *spec.Axiom, same bool) int {
	t.Helper()
	got := renderPairs(consist.Overlaps(outer, inner, same))
	want := renderPairs(bruteOverlaps(outer, inner, same))
	if !slices.Equal(got, want) {
		t.Errorf("%s: [%s]/[%s] same=%v:\n got  %q\n want %q", what, outer.Label, inner.Label, same, got, want)
	}
	return len(want)
}

// Every ordered axiom pair of every library spec superposes exactly as
// the unpruned reference does. No two library axioms overlap, so Queue
// with two injected contradictions (as in TestInjectedContradiction and
// TestErrorValueContradiction) joins them to give the comparison real
// pairs.
func TestOverlapsMatchesBruteForceOnLibrary(t *testing.T) {
	env := speclib.BaseEnv()
	specs := []*spec.Spec{
		loadQueuePlus(t, "    [bad] isEmpty?(add(q, i)) = true"),
		loadQueuePlus(t, "    [bad] remove(new) = new"),
	}
	for _, name := range speclib.Names {
		specs = append(specs, env.MustGet(name))
	}
	total := 0
	for _, sp := range specs {
		for i, outer := range sp.All {
			for j, inner := range sp.All {
				total += checkSameOverlaps(t, sp.Name, outer, inner, i == j)
			}
		}
	}
	if total == 0 {
		t.Fatal("no critical pairs at all: the comparison is vacuous")
	}
}

// Hand-built axioms put the inner head where a head prune could go
// wrong: only at the root of a self-overlap, only inside an if's
// condition or branch, as the if itself, and an inner LHS that is a
// bare variable.
func TestOverlapsMatchesBruteForceAdversarial(t *testing.T) {
	const s = sig.Sort("S")
	b := sig.BoolSort
	x, y := term.NewVar("x", s), term.NewVar("y", s)
	c := term.NewVar("c", b)
	f := func(a *term.Term) *term.Term { return term.NewOp("f", s, a) }
	g := func(a *term.Term) *term.Term { return term.NewOp("g", s, a) }
	p := func(a *term.Term) *term.Term { return term.NewOp("p", b, a) }
	h := func(a *term.Term) *term.Term { return term.NewOp("h", s, a) }
	ax := func(label string, lhs, rhs *term.Term) *spec.Axiom {
		return &spec.Axiom{Label: label, LHS: lhs, RHS: rhs}
	}
	rootOnly := ax("root", f(g(x)), x)
	nested := ax("nested", f(f(x)), x)
	anyF := ax("anyf", f(y), y)
	pDef := ax("pdef", p(y), term.NewOp("true", b))
	inCond := ax("cond", h(term.NewIf(p(x), x, g(x))), x)
	inThen := ax("then", h(term.NewIf(c, f(x), x)), x)
	inElse := ax("else", h(term.NewIf(c, x, g(f(x)))), x)
	ifLHS := ax("iflhs", term.NewIf(c, x, y), x)
	varLHS := ax("varlhs", y, y)

	for _, tc := range []struct {
		outer, inner *spec.Axiom
		same         bool
		pairs        int
	}{
		{rootOnly, rootOnly, true, 0},
		{nested, nested, true, 1},
		{rootOnly, anyF, false, 1},
		{anyF, rootOnly, false, 1},
		{rootOnly, nested, false, 0},
		{nested, rootOnly, false, 1},
		{inCond, pDef, false, 1},
		{inThen, anyF, false, 1},
		{inElse, anyF, false, 1},
		{inThen, rootOnly, false, 1},
		{inCond, anyF, false, 0},
		{inCond, ifLHS, false, 0},
		{ifLHS, ifLHS, true, 0},
		{rootOnly, varLHS, false, 0},
	} {
		if n := checkSameOverlaps(t, "adversarial", tc.outer, tc.inner, tc.same); n != tc.pairs {
			t.Errorf("[%s]/[%s] same=%v: reference found %d pair(s), want %d", tc.outer.Label, tc.inner.Label, tc.same, n, tc.pairs)
		}
	}
}
