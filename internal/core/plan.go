package core

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/compilecache"
	"repro/internal/convert"
	"repro/internal/obs"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// Request plans (DESIGN.md §14). A stateless request restores the boot
// snapshot and loads its own source. When every unit of that load
// replays from the durable cache, all the load computes before it
// installs anything — the read forms, the converted trees, the
// proclaimed specials and each unit's cache key — is a function of the
// boot snapshot, the exact source text and the compiler options. The
// Rehydrated keeps that result per source text as a request plan,
// recorded by the first load that qualifies, and a later restored
// system's first load of the same text starts from it instead of
// reading, converting and keying. From there the load is the ordinary
// one: each recorded key is probed and replayed through replayUnit,
// whose checks (allocator context, gensym counter, function bindings)
// still decide, and the top-level forms still run.
//
// Plan trees are shared by every system that uses the plan, so the
// middle end never sees them: it rewrites a tree in place and tree.Copy
// appends to shared Var back-pointer lists. A plan unit that must
// compile converts its own source form again (privateTree).

// planEntries bounds one Rehydrated's plans; a full memo forgets its
// oldest plan. A plan holds its source text and converted trees, so
// the bound is kept below the durable layer's 1024 entries.
const planEntries = 256

// PlanStats counts a system's use of its boot snapshot's request plans:
// loads served by a plan, plans recorded, and loads whose plan named an
// entry the durable cache no longer holds, which then read and
// converted their source as usual.
type PlanStats struct {
	Hits, Records, Fallbacks int64
}

// PlanStats reports this system's plan use.
func (s *System) PlanStats() PlanStats { return s.plans }

// planKey names a plan: the source text and the compiler options that
// enter its units' cache keys (compilecache.OptsFingerprint).
type planKey struct{ src, opts string }

// plan is one source text's front-end result on a system restored from
// its Rehydrated: the proclaimed specials after the load and the units
// in source order, keyed.
type plan struct {
	specials   map[*sexp.Symbol]bool
	defs, tops []planUnit
}

// planUnit is a recorded unit. Top-level forms keep no tree: they
// compile only when their replay fails, from a fresh conversion.
type planUnit struct {
	sym *sexp.Symbol
	lam *tree.Lambda
	o   origin
	key string
}

// planMemo is a Rehydrated's bounded plan table, shared by every system
// restored from it.
type planMemo struct {
	mu    sync.Mutex
	m     map[planKey]*plan
	order []planKey
}

func (pm *planMemo) get(k planKey) *plan {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.m[k]
}

// put records p under k unless a plan is already there, reporting
// whether it did.
func (pm *planMemo) put(k planKey, p *plan) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.m == nil {
		pm.m = map[planKey]*plan{}
	}
	if pm.m[k] != nil {
		return false
	}
	if len(pm.order) >= planEntries {
		delete(pm.m, pm.order[0])
		pm.order = pm.order[1:]
	}
	pm.m[k] = p
	pm.order = append(pm.order, k)
	return true
}

// planned returns src's units from the boot snapshot's plan for it, with
// the plan's specials proclaimed, or nil when there is no plan or one of
// its entries is gone from the durable cache. Every key is probed
// before the system is touched, so a nil return leaves it as it was.
// The caller has checked that this load may use a plan.
func (s *System) planned(src string, batch *obs.Task) *load {
	p := s.boot.plans.get(planKey{src, compilecache.OptsFingerprint(s.Compiler.Opts)})
	if p == nil {
		return nil
	}
	sp := batch.Start("plan")
	defer sp.End()
	units := func(rec []planUnit) ([]*unit, bool) {
		out := make([]*unit, len(rec))
		for i, pu := range rec {
			u := &unit{sym: pu.sym, lam: pu.lam, shared: true, o: pu.o, key: pu.key}
			if pu.sym != nil {
				u.name = pu.sym.Name
			}
			if u.disk, u.diskSrc = s.disk.Probe(u.key); u.disk == nil {
				return nil, false
			}
			out[i] = u
		}
		return out, true
	}
	ld := &load{}
	ok := false
	if ld.defs, ok = units(p.defs); ok {
		ld.tops, ok = units(p.tops)
	}
	if !ok {
		s.plans.Fallbacks++
		return nil
	}
	s.Conv.Specials = maps.Clone(p.specials)
	s.plans.Hits++
	return ld
}

// recordPlan stores ld as src's plan in the boot snapshot's memo, if
// every unit replayed from the durable cache and none compiled. The
// caller has checked the rest: a first load that may use a plan but
// found none, with no diagnostic and no macro defined or expanded.
func (s *System) recordPlan(src string, ld *load) {
	units := func(us []*unit) ([]planUnit, bool) {
		out := make([]planUnit, len(us))
		for i, u := range us {
			if !u.replayed {
				return nil, false
			}
			out[i] = planUnit{sym: u.sym, o: u.o, key: u.key}
			if u.sym != nil {
				out[i].lam = u.lam
			}
		}
		return out, true
	}
	p := &plan{}
	var ok bool
	if p.defs, ok = units(ld.defs); !ok {
		return
	}
	if p.tops, ok = units(ld.tops); !ok {
		return
	}
	p.specials = maps.Clone(s.Conv.Specials)
	if s.boot.plans.put(planKey{src, compilecache.OptsFingerprint(s.Compiler.Opts)}, p) {
		s.plans.Records++
	}
}

// privateTree gives a plan unit that must compile its own tree,
// converting its source form again. The converter's specials are the
// plan's, which are what the recorded conversion saw: conversion never
// adds a proclamation, and every proclamation of the load was scanned
// before its first form converted.
func (s *System) privateTree(u *unit) error {
	prog := convert.NewProgram()
	if err := s.Conv.TopForm(prog, u.o.form); err != nil {
		return err
	}
	switch {
	case u.sym != nil && len(prog.Defs) == 1:
		u.lam = prog.Defs[0].Lambda
	case u.sym == nil && u.o.pos < len(prog.TopForms):
		u.lam = convert.WrapToplevel(prog.TopForms[u.o.pos])
	default:
		return fmt.Errorf("core: converting %s again gave a different program", u.name)
	}
	u.shared = false
	return nil
}
