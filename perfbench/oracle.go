package main

import (
	"fmt"

	"algspec/internal/core"
	"algspec/internal/rewrite"
	"algspec/internal/speclib"
)

// serverFuel is adt serve's default per-request reduction budget; the
// oracle runs under the same budget so an input that would exhaust the
// server's fuel fails here, before a request is sent.
const serverFuel = 1 << 20

// computeOracles fills in every normalize request's expected normal form
// and step count. The answers come from an environment the server never
// sees, evaluated on the reference interpreter tier under the request's
// own strategy. spec_edit uploads carry distinct spec names, so all of
// them load into the one oracle environment.
func computeOracles(ops []Op) error {
	env := core.NewEnv()
	env.MustLoad(speclib.Sources...)
	for i := range ops {
		if ops[i].Source != "" {
			if _, err := env.Load(ops[i].Source); err != nil {
				return fmt.Errorf("op %d: loading upload into the oracle: %w", i, err)
			}
		}
	}
	forks := map[string]*rewrite.System{}
	for i := range ops {
		for j := range ops[i].Norms {
			nr := &ops[i].Norms[j]
			key := nr.Spec + "\x00" + nr.Strategy
			sys, ok := forks[key]
			if !ok {
				base, err := env.System(nr.Spec)
				if err != nil {
					return err
				}
				opts := []rewrite.Option{rewrite.WithoutCompiledTier(), rewrite.WithMaxSteps(serverFuel)}
				if nr.Strategy == "outermost" {
					opts = append(opts, rewrite.WithStrategy(rewrite.Outermost))
				}
				sys = base.Fork(opts...)
				forks[key] = sys
			}
			t, err := env.ParseTerm(nr.Spec, nr.Term)
			if err != nil {
				return fmt.Errorf("op %d: %s %q does not parse: %w", i, nr.Spec, nr.Term, err)
			}
			sys.ResetSteps()
			nf, err := sys.Normalize(t)
			if err != nil {
				return fmt.Errorf("op %d: %s %q has no normal form within the fuel: %w", i, nr.Spec, nr.Term, err)
			}
			nr.WantNF, nr.WantSteps = nf.String(), sys.Steps()
		}
	}
	return nil
}
