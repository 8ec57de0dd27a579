package s1

import "testing"

// TestTierPromotionThreshold checks that a function crossing its
// invocation threshold is promoted exactly once and lowered into blocks.
func TestTierPromotionThreshold(t *testing.T) {
	m := New()
	m.SetHotThreshold(3)
	buildAdd2(t, m)
	for i := 0; i < 5; i++ {
		got, err := m.CallFunction("add2", FixnumWord(30), FixnumWord(12))
		if err != nil {
			t.Fatal(err)
		}
		if got.Int() != 42 {
			t.Fatalf("call %d: add2 = %s", i, got)
		}
	}
	ts := m.TierStats()
	if !ts.Enabled || ts.Threshold != 3 {
		t.Fatalf("tier stats: %+v", ts)
	}
	if ts.Promotions != 1 || ts.HotFunctions != 1 {
		t.Errorf("want exactly one promotion, got %+v", ts)
	}
	if ts.LoweredBlocks == 0 || ts.LoweredInstrs == 0 {
		t.Errorf("promotion lowered nothing: %+v", ts)
	}
	fns := m.TierFunctions()
	if len(fns) != 1 || fns[0].Name != "add2" || fns[0].Calls != 5 || !fns[0].Hot {
		t.Errorf("per-function stats: %+v", fns)
	}
}

// TestTierForcedHot checks that threshold <= 0 promotes at AddFunction,
// before the first call.
func TestTierForcedHot(t *testing.T) {
	m := New()
	m.SetHotThreshold(0)
	buildAdd2(t, m)
	if ts := m.TierStats(); ts.Promotions != 1 {
		t.Fatalf("forced-hot did not promote at install: %+v", ts)
	}
	got, err := m.CallFunction("add2", FixnumWord(30), FixnumWord(12))
	if err != nil || got.Int() != 42 {
		t.Fatalf("add2 = %s, %v", got, err)
	}
}

// TestTierSetNoTier checks that disabling the tier rolls the machine
// back to plain decoded dispatch.
func TestTierSetNoTier(t *testing.T) {
	m := New()
	m.SetHotThreshold(0)
	buildAdd2(t, m)
	if m.TierStats().Promotions != 1 {
		t.Fatal("precondition: promotion at install")
	}
	if m.CheckDispatchIsBase() == nil {
		t.Fatal("precondition: promotion installed no lowered block")
	}
	m.SetNoTier()
	if ts := m.TierStats(); ts.Enabled || ts.Promotions != 0 {
		t.Errorf("tier stats after SetNoTier: %+v", ts)
	}
	if err := m.CheckDispatchIsBase(); err != nil {
		t.Error(err)
	}
	got, err := m.CallFunction("add2", FixnumWord(30), FixnumWord(12))
	if err != nil || got.Int() != 42 {
		t.Fatalf("add2 = %s, %v", got, err)
	}
}

// TestTierLandingRefusion checks that a control transfer observed
// landing inside a lowered block re-fuses the function with that PC as
// a block boundary.
func TestTierLandingRefusion(t *testing.T) {
	m := New()
	m.SetHotThreshold(0)
	idx := addFn(t, m, "line", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(1)}),
		InstrItem(Instr{Op: OpMOV, A: R(11), B: ImmInt(2)}),
		InstrItem(Instr{Op: OpMOV, A: R(12), B: ImmInt(3)}),
		InstrItem(Instr{Op: OpMOV, A: R(13), B: ImmInt(4)}),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(7))}),
		InstrItem(Instr{Op: OpRET}),
	})
	entry := m.Funcs[idx].Entry
	mid := entry + 2
	if m.tierHeads[mid] {
		t.Fatalf("pc %d should be a lowered-block interior", mid)
	}
	m.tier.noteLanding(m, mid)
	if !m.tierHeads[mid] {
		t.Fatalf("landing at %d did not become a block boundary", mid)
	}
	if ts := m.TierStats(); ts.Refusions != 1 {
		t.Errorf("want one re-fusion, got %+v", ts)
	}
	// The split function must still run correctly.
	got, err := m.CallFunction("line")
	if err != nil || got.Int() != 7 {
		t.Fatalf("line = %s, %v", got, err)
	}
	// Duplicate landings are deduplicated.
	m.tier.noteLanding(m, mid)
	if ts := m.TierStats(); ts.Refusions != 1 {
		t.Errorf("duplicate landing re-fused again: %+v", ts)
	}
}

// buildPolyCaller installs f1 (returns 1), f2 (returns 2), and a caller
// g whose CALL site goes through the symbol "poly".
func buildPolyCaller(t *testing.T, m *Machine) (f1, f2 int) {
	f1 = addFn(t, m, "f1", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(1))}),
		InstrItem(Instr{Op: OpRET}),
	})
	f2 = addFn(t, m, "f2", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(2))}),
		InstrItem(Instr{Op: OpRET}),
	})
	sym := m.InternSym("poly")
	addFn(t, m, "g", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(0)}),
		InstrItem(Instr{Op: OpCALL, A: Imm(Ptr(TagSymbol, uint64(sym))), TagArg: 0}),
		InstrItem(Instr{Op: OpPOP, A: R(RegA)}),
		InstrItem(Instr{Op: OpRET}),
	})
	return f1, f2
}

// TestTierCallCacheRebind checks that the CALL inline cache is keyed on
// the symbol's current function cell: rebinding the symbol invalidates
// the cache and the next call refills it with the new callee.
func TestTierCallCacheRebind(t *testing.T) {
	m := New()
	m.SetHotThreshold(0)
	f1, f2 := buildPolyCaller(t, m)
	m.SetSymbolFunction("poly", Ptr(TagFunc, uint64(f1)))

	got, err := m.CallFunction("g")
	if err != nil || got.Int() != 1 {
		t.Fatalf("g with poly=f1: %s, %v", got, err)
	}
	fillsAfterFirst := m.TierStats().CacheFills
	if fillsAfterFirst == 0 {
		t.Fatal("first call through the IC site did not fill the cache")
	}

	// A second call with an unchanged binding must hit, not refill.
	if _, err := m.CallFunction("g"); err != nil {
		t.Fatal(err)
	}
	if fills := m.TierStats().CacheFills; fills != fillsAfterFirst {
		t.Errorf("cache refilled on a stable binding: %d -> %d", fillsAfterFirst, fills)
	}

	// Rebinding must invalidate: the next call sees f2 and refills.
	m.SetSymbolFunction("poly", Ptr(TagFunc, uint64(f2)))
	got, err = m.CallFunction("g")
	if err != nil || got.Int() != 2 {
		t.Fatalf("g with poly=f2: %s, %v (stale inline cache?)", got, err)
	}
	if fills := m.TierStats().CacheFills; fills != fillsAfterFirst+1 {
		t.Errorf("rebind did not refill the cache: %d -> %d", fillsAfterFirst, fills)
	}
}

// TestTierStatsDisabled checks the nil-tier accessors.
func TestTierStatsDisabled(t *testing.T) {
	m := New()
	m.SetNoTier()
	if ts := m.TierStats(); ts.Enabled {
		t.Errorf("disabled tier reports enabled: %+v", ts)
	}
	if fns := m.TierFunctions(); len(fns) != 0 {
		t.Errorf("disabled tier reports functions: %+v", fns)
	}
}
