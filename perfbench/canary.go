package main

import (
	"errors"
	"fmt"
)

// The canary study runs at a fixed seed whatever the workload seed, and
// its outputs are pinned: a change to any engine's results fails the run.
const (
	canarySeed       = 42
	canaryGridDigest = 0x84b1b37f3ee6bf48
	canaryPlanTuple  = 18
	canaryPlanRepl   = 3
	canaryMGkDigest  = 0xdf6d7555a3e9bbe2
)

// checkCanary runs the small canary study and compares it with the pinned
// values.
func checkCanary(b *bench) error {
	spec := newStudySpec(canarySeed, true)
	su, err := setupStudy(spec, mgkSample())
	if err != nil {
		return err
	}
	sp := b.tr.begin("bench/canary", -1, -1)
	st, err := runStudy(b, spec, su, sp)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	var errs []error
	if d := gridDigest(st.grid.Reports); d != canaryGridDigest {
		errs = append(errs, fmt.Errorf("canary grid digest %016x, pinned %016x", d, uint64(canaryGridDigest)))
	}
	tuple, repl := -1, -1
	if best := st.plans[0].Best; best != nil {
		tuple, repl = best.Tuple, best.Replicas
	}
	if tuple != canaryPlanTuple || repl != canaryPlanRepl {
		errs = append(errs, fmt.Errorf("canary plan optimum tuple %d at %d replicas, pinned tuple %d at %d", tuple, repl, canaryPlanTuple, canaryPlanRepl))
	}
	if d := curveDigest(st.curve); d != canaryMGkDigest {
		errs = append(errs, fmt.Errorf("canary M/G/k digest %016x, pinned %016x", d, uint64(canaryMGkDigest)))
	}
	return errors.Join(errs...)
}
