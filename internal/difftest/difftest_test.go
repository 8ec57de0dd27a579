package difftest

import "testing"

// TestDifferential runs a fixed range of generated programs, each in
// the configuration its seed draws (Run makes the reference run too),
// and every hand-written program in every configuration. It logs how
// many runs each shape family and each value of each dimension had, and
// fails unless all of them ran and the runs did real minor collections,
// restores, parks of the program at a safepoint and profiled
// instructions.
func TestDifferential(t *testing.T) {
	count := map[string]int64{}
	tally := func(p *Prog, r *Report) {
		for _, f := range p.Families {
			count["family="+f]++
		}
		for _, d := range r.Config.Dims() {
			count[d]++
		}
		count["minor collections"] += r.GC.MinorCollections
		count["restores"] += int64(r.Restores)
		count["parks"] += r.Parks
		count["profiled instructions"] += r.Profiled
	}
	seeds := uint64(320)
	if testing.Short() {
		seeds = 64
	}
	for seed := uint64(0); seed < seeds; seed++ {
		p := Program(seed)
		r, err := Run(p, ConfigOf(uint8(seed)), nil)
		if err != nil {
			t.Fatalf("seed %d mode %d: %v", seed, uint8(seed), err)
		}
		tally(p, r)
	}
	for _, p := range Handwritten() {
		ref, err := Run(p, Config{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for mode := uint8(1); mode < 64; mode++ {
			if mode>>2&3 == 3 {
				continue // snapshot none again
			}
			r, err := Run(p, ConfigOf(mode), ref)
			if err != nil {
				t.Fatalf("%s mode %d: %v", p.Name, mode, err)
			}
			tally(p, r)
		}
	}
	t.Logf("%d generated programs; %v", seeds, count)
	var want []string
	for _, f := range Families {
		want = append(want, "family="+f)
	}
	for mode := 0; mode < 64; mode++ {
		d := ConfigOf(uint8(mode)).Dims()
		want = append(want, d[:]...)
	}
	for _, k := range append(want, "minor collections", "restores", "parks", "profiled instructions") {
		if count[k] == 0 {
			t.Errorf("no %s", k)
		}
	}
}

// FuzzDifferential runs the program seed draws in the configuration
// mode picks (ConfigOf); a failure is reproduced by its two numbers.
func FuzzDifferential(f *testing.F) {
	for mode := uint8(0); mode < 64; mode += 7 {
		f.Add(uint64(mode)*31, mode)
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8) {
		if _, err := Run(Program(seed), ConfigOf(mode), nil); err != nil {
			t.Fatal(err)
		}
	})
}
