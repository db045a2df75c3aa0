package rewrite

// Matcher-level tests for machine cases that are awkward to reach
// through full specifications: non-left-linear patterns, literal error
// patterns, a failing rule's loads left in the registers a later rule
// reads, duplicate patterns, and the build tree's constant folding.

import (
	"errors"
	"testing"

	"algspec/internal/sig"
	"algspec/internal/term"
)

const tS = sig.Sort("S")

// matchOne compiles rules and runs the subject's head-symbol match
// program, returning the winning rule (-1 for none), the register frame
// and the compiled machine.
func matchOne(t *testing.T, rules []Rule, subject *term.Term) (int, []*term.Term, *machine) {
	t.Helper()
	m := compileMachine(rules)
	p := m.progs[subject.Sym]
	if p == nil {
		return -1, nil, m
	}
	regs := make([]*term.Term, p.nregs)
	return (&System{}).runMatch(p, subject, regs), regs, m
}

func TestMachineNonLinearPattern(t *testing.T) {
	x := term.NewVar("x", tS)
	rules := []Rule{{Label: "nl", LHS: term.NewOp("f", tS, x, x), RHS: x}}
	a := term.NewAtom("a", tS)
	b := term.NewAtom("b", tS)
	ri, regs, m := matchOne(t, rules, term.NewOp("f", tS, a, a))
	if ri != 0 {
		t.Fatalf("f('a,'a) should match the non-linear pattern")
	}
	if n := m.builds[0]; n.op != bReg || !regs[n.a].Equal(a) {
		t.Fatalf("build reads register %d = %v, want 'a", n.a, regs[n.a])
	}
	if ri, _, _ := matchOne(t, rules, term.NewOp("f", tS, a, b)); ri != -1 {
		t.Fatalf("f('a,'b) must not match f(x,x)")
	}
}

func TestMachineErrorPattern(t *testing.T) {
	rules := []Rule{{
		Label: "onerr",
		LHS:   term.NewOp("g", tS, term.NewErr(tS)),
		RHS:   term.NewAtom("caught", tS),
	}}
	if ri, _, _ := matchOne(t, rules, term.NewOp("g", tS, term.NewErr(tS))); ri != 0 {
		t.Fatalf("g(error) should match the literal error pattern")
	}
	if ri, _, _ := matchOne(t, rules, term.NewOp("g", tS, term.NewAtom("a", tS))); ri != -1 {
		t.Fatalf("g('a) must not match g(error)")
	}
}

// TestMachineFailEdgeCaptures makes the first rule load and check its
// registers before failing; the fail edge resumes at the second rule,
// whose build must read the second rule's own capture.
func TestMachineFailEdgeCaptures(t *testing.T) {
	x := term.NewVar("x", tS)
	y := term.NewVar("y", tS)
	rules := []Rule{
		{Label: "r0", LHS: term.NewOp("f", tS, x, term.NewAtom("a", tS)), RHS: x},
		{Label: "r1", LHS: term.NewOp("f", tS, term.NewOp("c", tS, y), term.NewAtom("b", tS)), RHS: y},
	}
	d := term.NewAtom("d", tS)
	subject := term.NewOp("f", tS, term.NewOp("c", tS, d), term.NewAtom("b", tS))
	ri, regs, m := matchOne(t, rules, subject)
	if ri != 1 {
		t.Fatalf("matched rule %d, want 1", ri)
	}
	if n := m.builds[1]; n.op != bReg || !regs[n.a].Equal(d) {
		t.Fatalf("r1's build reads register %d = %v, want 'd", n.a, regs[n.a])
	}
}

// TestMachineDuplicatePattern: a rule whose LHS duplicates an earlier
// rule's pattern can never fire; the earlier rule keeps priority.
func TestMachineDuplicatePattern(t *testing.T) {
	x := term.NewVar("x", tS)
	rules := []Rule{
		{Label: "first", LHS: term.NewOp("f", tS, x), RHS: term.NewAtom("one", tS)},
		{Label: "dead", LHS: term.NewOp("f", tS, term.NewVar("z", tS)), RHS: term.NewAtom("two", tS)},
	}
	if ri, _, _ := matchOne(t, rules, term.NewOp("f", tS, term.NewAtom("a", tS))); ri != 0 {
		t.Fatalf("matched rule %d, want 0 (earlier duplicate keeps priority)", ri)
	}
}

// TestMachineBuildGroundAndUnboundVars: a right-hand side mixing a bound
// variable, an unbound variable (left in place, like Bindings.Build) and
// a ground subtree compiles the latter two to constants that share the
// rule's own nodes.
func TestMachineBuildGroundAndUnboundVars(t *testing.T) {
	x := term.NewVar("x", tS)
	free := term.NewVar("free", tS)
	ground := term.NewOp("k", tS)
	rules := []Rule{
		{Label: "mix", LHS: term.NewOp("f", tS, x), RHS: term.NewOp("g", tS, x, free, ground)},
	}
	a := term.NewAtom("a", tS)
	ri, regs, m := matchOne(t, rules, term.NewOp("f", tS, a))
	if ri != 0 {
		t.Fatalf("no match")
	}
	n := m.builds[0]
	if n.op != bMk || n.sym != "g" || len(n.kids) != 3 {
		t.Fatalf("build root = %+v, want g/3 application", n)
	}
	if k := n.kids[0]; k.op != bReg || regs[k.a] != a {
		t.Fatalf("first child must read the capture of x")
	}
	if k := n.kids[1]; k.op != bConst || k.lit != free {
		t.Fatalf("unbound variable must be a shared constant")
	}
	if k := n.kids[2]; k.op != bConst || k.lit != ground {
		t.Fatalf("ground subtree must be a shared constant")
	}
}

// TestNestingBoundIsFuelError drives a rule that recurses under a
// constructor, grow(x) = s(grow(x)), with fuel to spare: the machine must
// stop it at maxDepth with the fuel error instead of overflowing the
// goroutine stack. Each step nests one evalBuild pair (the s node and the
// grow child), so the bound is reached after maxDepth/2 steps.
func TestNestingBoundIsFuelError(t *testing.T) {
	x := term.NewVar("x", tS)
	c := term.NewOp("c", tS)
	rules := []Rule{{Label: "g", LHS: term.NewOp("grow", tS, x), RHS: term.NewOp("s", tS, term.NewOp("grow", tS, x))}}
	sys := &System{maxSteps: 4 * maxDepth, intern: term.NewInterner(), native: map[string]NativeFunc{}}
	sys.prog = &program{rules: rules, index: map[string][]int{"grow": {0}}, mach: compileMachine(rules)}
	sys.buildDispatch()
	_, err := sys.Normalize(term.NewOp("grow", tS, c))
	var fe *ErrFuel
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *ErrFuel", err)
	}
	if want := maxDepth / 2; fe.Steps < want-2 || fe.Steps > want+2 {
		t.Fatalf("stopped after %d steps, want about %d (maxDepth/2)", fe.Steps, want)
	}
}
