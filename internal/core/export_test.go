package core

import "repro/internal/diag"

// CorpusSrc exports the package tests' example corpus to package
// core_test.
const CorpusSrc = corpusSrc

// CodeReservation is the code-vector reservation a cold load of src
// makes: the sum of its definitions' prepared code estimates.
func CodeReservation(src string) (int, error) {
	est := NewSystem(Options{})
	ld := est.frontEnd(src, est.Obs.Task("batch", 0), diag.NewList(0))
	need := 0
	for _, u := range ld.defs {
		p, err := est.safePrepare(u.name, u.lam, est.Obs.Task(u.name, 0), 0)
		if err != nil {
			return 0, err
		}
		need += p.CodeEstimate()
	}
	return need, nil
}
