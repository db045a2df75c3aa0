package rewrite_test

import (
	"testing"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
)

// FuzzNormalize feeds arbitrary term strings to the engine, checked
// differentially: whatever the input, the compiled machine tier and the
// reference interpreter must agree on the outcome — same acceptance,
// same normal form, same step count — under a small fuel bound so
// divergent inputs terminate by running out of steps.
func FuzzNormalize(f *testing.F) {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)

	f.Add("Queue", "front(add(add(new, 'x), 'y))")
	f.Add("Queue", "if isEmpty?(new) then front(new) else remove(new)")
	f.Add("Nat", "addN(succ(zero), succ(zero))")
	f.Add("Nat", "eqN(pred(zero), zero)")
	f.Add("Symboltable", "retrieve(init, 'x)")
	f.Add("Queue", "front(((")
	f.Add("Queue", "error")
	f.Fuzz(func(t *testing.T, specName, termSrc string) {
		sp, ok := env.Get(specName)
		if !ok {
			return
		}
		tm, err := env.ParseTerm(specName, termSrc)
		if err != nil {
			return // not a well-sorted ground term of this spec
		}
		mach := rewrite.New(sp, rewrite.WithMaxSteps(5000))
		ref := rewrite.New(sp, rewrite.WithoutCompiledTier(), rewrite.WithMaxSteps(5000))
		machNF, machErr := mach.Normalize(tm)
		refNF, refErr := ref.Normalize(tm)
		if (machErr == nil) != (refErr == nil) {
			t.Fatalf("tiers disagree on acceptance of %s: compiled=%v interp=%v", tm, machErr, refErr)
		}
		if machErr == nil && !machNF.Equal(refNF) {
			t.Fatalf("normal forms differ for %s:\n  compiled: %s\n  interp:   %s", tm, machNF, refNF)
		}
		if mach.Stats().Steps != ref.Stats().Steps {
			t.Fatalf("step counts differ for %s: compiled=%d interp=%d", tm, mach.Stats().Steps, ref.Stats().Steps)
		}
	})
}
