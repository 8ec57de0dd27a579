package difftest

import (
	"context"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/s1"
	"repro/internal/sched"
	"repro/internal/sexp"
)

// GC is the collector dimension of a configuration.
type GC uint8

const (
	Gen   GC = iota // generational collection, the default
	NoGen           // every automatic collection full (core.Options.GCNoGen)
	Minor           // a minor collection before every allocation
	Full            // a full collection before every allocation; Small programs only
)

// Snapshot is the snapshot dimension: where, if anywhere, the run
// snapshots its system and goes on with two systems restored from it.
type Snapshot uint8

const (
	NoSnapshot Snapshot = iota
	AfterLoad
	// AfterCall snapshots after call k, 1 <= k < len(Calls), drawn from
	// the program's seed and the configuration's Mode.
	AfterCall
)

// Config is one execution configuration. The zero value is the
// reference: generational GC, no snapshot, no yield, profile off.
type Config struct {
	GC       GC
	Snapshot Snapshot
	// Yield runs every call under a one-worker scheduler with Stress
	// set and a competing task, so the call parks and resumes at every
	// safepoint through the daemon's own hook, sched.Task.Safepoint.
	Yield bool
	// Profile turns the profiler on, which sends every instruction
	// through step's generic path instead of its lowered fast form.
	Profile bool
	// Codegen, when non-nil, replaces the default compiler phases (a
	// phase ablation), and the reference is the same ablation.
	Codegen *codegen.Options
}

// ConfigOf maps a fuzz mode byte onto a configuration: bits 0-1 pick
// the GC mode, bits 2-3 the snapshot (3 means none), bit 4 yield and
// bit 5 profile.
func ConfigOf(mode uint8) Config {
	return Config{GC: GC(mode & 3), Snapshot: Snapshot((mode >> 2 & 3) % 3),
		Yield: mode&16 != 0, Profile: mode&32 != 0}
}

// Mode is the fuzz mode byte ConfigOf maps onto c, ignoring Codegen.
func (c Config) Mode() uint8 {
	m := uint8(c.GC) | uint8(c.Snapshot)<<2
	if c.Yield {
		m |= 16
	}
	if c.Profile {
		m |= 32
	}
	return m
}

// Dims names the configuration's value on each dimension.
func (c Config) Dims() [4]string {
	return [4]string{"gc=" + [...]string{"gen", "nogen", "minor", "full"}[c.GC],
		"snapshot=" + [...]string{"none", "load", "call"}[c.Snapshot],
		fmt.Sprint("yield=", c.Yield), fmt.Sprint("profile=", c.Profile)}
}

func (c Config) String() string { return fmt.Sprint(c.Dims()) }

// Report is what one run observed.
type Report struct {
	// Config is the configuration that ran: Full becomes Minor on a
	// program that is not Small.
	Config Config
	// Values holds each call's printed result, or "error".
	Values []string
	// Stats holds each call's machine meters (reset before the call).
	Stats []s1.Stats
	// GC sums the collector meters of every system the run used.
	GC s1.GCStats
	// Restores counts restored systems, Parks the times a call parked at
	// a safepoint under Yield, and Profiled the instructions the profiler
	// counted during calls.
	Restores        int
	Parks, Profiled int64
}

// modeDependent zeroes the Stats fields that legitimately differ
// between configurations. The only one is HeapWords, the heap's growth:
// when garbage is reclaimed decides how far the heap grows, and that
// depends on the GC mode and on a restore tenuring every block. Every
// other field — cycles, instructions, MOVs, allocations, stack depth,
// special lookups, calls, marshaled primitives — is a function of the
// program alone.
func modeDependent(st s1.Stats) s1.Stats {
	st.HeapWords = 0
	return st
}

// maxTailStack bounds MaxStack, in words, for a Tail call: a self tail
// loop runs in constant stack whatever its trip count.
const maxTailStack = 64

// Run runs p in configuration c and checks five properties:
//
//  1. each call prints what System.Interpret returns for it, or both
//     raise an error (the interpreter runs in the reference run);
//  2. each call's Stats equal the reference configuration's, apart from
//     the modeDependent fields; when c differs from the reference only
//     in Yield and Profile, the collector meters match too, and under
//     Profile the profile's per-call sums equal the call's Stats;
//  3. CheckHeapInvariants and CheckStackRegs hold after every call,
//     and no dynamic binding or primitive argument slot outlives it;
//  4. under Yield, the hook's cycle deltas plus the uncharged residue
//     sum to Stats.Cycles;
//  5. a Tail call's MaxStack stays within maxTailStack.
//
// ref is the reference run for c's ablation, the report of
// Run(p, Config{Codegen: c.Codegen}, nil); when it is nil, Run makes it
// first. A caller running one program in many configurations passes it
// to save the reference run.
func Run(p *Prog, c Config, ref *Report) (*Report, error) {
	if c.GC == Full && !p.Small {
		c.GC = Minor
	}
	reference := Config{Codegen: c.Codegen}
	if ref == nil {
		r, err := run(p, reference, nil)
		if err != nil || c == reference {
			return r, err
		}
		ref = r
	}
	return run(p, c, ref)
}

// run makes one run; ref is nil for the reference run, which asks the
// interpreter for each call's value.
func run(p *Prog, c Config, ref *Report) (*Report, error) {
	opts := core.Options{Constants: p.Constants, Codegen: c.Codegen,
		GCNoGen: c.GC == NoGen, GCStressMinor: c.GC == Minor, GCStress: c.GC == Full}
	sys := core.NewSystem(opts)
	if c.Profile {
		sys.EnableProfile()
	}
	if p.GCThreshold > 0 {
		sys.Machine.SetGCThreshold(p.GCThreshold)
	}
	if err := sys.LoadString(p.Src); err != nil {
		return nil, fmt.Errorf("%s %s: load: %w", p.Name, c, err)
	}
	rep := &Report{Config: c}
	var s *sched.Sched
	if c.Yield {
		s = sched.New(sched.Config{Workers: 1, Stress: true})
	}
	at := -1
	if c.Snapshot != NoSnapshot {
		if at = 0; c.Snapshot == AfterCall && len(p.Calls) > 1 {
			at = 1 + int((p.Seed+uint64(c.Mode()))%uint64(len(p.Calls)-1))
		}
	}
	systems, used := []*core.System{sys}, []*core.System{sys}
	for i, call := range p.Calls {
		if i == at {
			var err error
			if systems, err = restoreTwice(p, sys, opts, c.Profile); err != nil {
				return nil, fmt.Errorf("%s %s: snapshot after call %d: %w", p.Name, c, i, err)
			}
			used = append(used, systems...)
			rep.Restores += len(systems)
		}
		for j, sys := range systems {
			if err := rep.call(sys, i, call, s, ref, j > 0); err != nil {
				return nil, fmt.Errorf("%s %s: call %d (%s %s): %w\n%s", p.Name, c, i, call.Fn, call.Args, err, p.Src)
			}
		}
	}
	for _, sys := range used {
		g := sys.Machine.GCMeters
		rep.GC.Collections += g.Collections
		rep.GC.MinorCollections += g.MinorCollections
		rep.GC.WordsPromoted += g.WordsPromoted
	}
	if ref != nil && c.GC == Gen && c.Snapshot == NoSnapshot && rep.GC != ref.GC {
		return nil, fmt.Errorf("%s %s: collector meters %+v, reference %+v", p.Name, c, rep.GC, ref.GC)
	}
	return rep, nil
}

// restoreTwice snapshots sys and restores two systems from one
// rehydration. A system with compile-time constants cannot snapshot
// (core.System.Snapshot), so for one the two halves of a restore are
// taken by hand: an exported image loaded into a template machine, and
// each system's machine copied from the template.
func restoreTwice(p *Prog, sys *core.System, opts core.Options, profile bool) ([]*core.System, error) {
	var restore func() (*core.System, error)
	if len(p.Constants) > 0 {
		img, err := sys.Machine.ExportImage()
		tmpl := s1.New()
		if err == nil {
			err = tmpl.LoadImage(img)
		}
		if err != nil {
			return nil, err
		}
		restore = func() (*core.System, error) {
			s := core.NewSystem(opts)
			return s, s.Machine.LoadFrom(tmpl)
		}
	} else {
		snap, err := sys.Snapshot()
		if err != nil {
			return nil, err
		}
		r, err := core.Rehydrate(snap)
		if err != nil {
			return nil, err
		}
		restore = func() (*core.System, error) { return r.Restore(opts) }
	}
	out := make([]*core.System, 2)
	for i := range out {
		var err error
		if out[i], err = restore(); err != nil {
			return nil, err
		}
		if profile {
			out[i].EnableProfile()
		}
	}
	return out, nil
}

// call makes call i on sys and checks it; under Yield it runs as a task
// of s. twin marks the second of two restored systems, whose value and
// Stats the first one recorded.
func (rep *Report) call(sys *core.System, i int, c Call, s *sched.Sched, ref *Report, twin bool) (err error) {
	var want string
	switch {
	case twin:
		want = rep.Values[i]
	case ref == nil:
		want = show(sys.Interpret(c.Fn, readArgs(c.Args)...))
	default:
		want = ref.Values[i]
	}
	m := sys.Machine
	sys.ResetStats()
	var ops, cycles int64
	if prof := m.Profile(); prof != nil {
		ops, cycles = profSums(prof)
	}
	call := func() string { return show(sys.Call(c.Fn, readArgs(c.Args)...)) }
	var got string
	if s == nil {
		got = call()
	} else {
		var parks int64
		if got, parks, err = yieldCall(s, m, call); err != nil {
			return err
		}
		rep.Parks += parks
	}
	st := *sys.Stats()
	if !twin {
		rep.Values, rep.Stats = append(rep.Values, got), append(rep.Stats, st)
	}
	if got != want {
		return fmt.Errorf("prints %s, the interpreter %s", got, want)
	}
	if ref != nil && modeDependent(st) != modeDependent(ref.Stats[i]) {
		return fmt.Errorf("stats diverge from the reference:\n  got: %+v\n  ref: %+v", st, ref.Stats[i])
	}
	if prof := m.Profile(); prof != nil {
		o, cy := profSums(prof)
		o, cy = o-ops, cy-cycles
		rep.Profiled += o
		// specFind's probe cycles land on Stats only.
		if o != st.Instrs || cy+2*st.SpecialSearchSteps != st.Cycles {
			return fmt.Errorf("profile sums %d instrs / %d cycles, meters %d / %d (%d probe steps)",
				o, cy, st.Instrs, st.Cycles, st.SpecialSearchSteps)
		}
	}
	if err := m.CheckHeapInvariants(); err != nil {
		return err
	}
	if err := m.CheckStackRegs(); err != nil {
		return err
	}
	if n, k := m.BindingDepth(), m.PrimArgsDepth(); n != 0 || k != 0 {
		return fmt.Errorf("%d dynamic bindings and %d primitive argument slots outlive the call", n, k)
	}
	if c.Tail && st.MaxStack > maxTailStack {
		return fmt.Errorf("tail loop reached stack depth %d, want at most %d", st.MaxStack, maxTailStack)
	}
	return nil
}

// readArgs reads a call's argument values, afresh for every engine.
func readArgs(args string) []sexp.Value {
	v, err := sexp.ReadOne("(" + args + ")")
	if err != nil {
		panic(err)
	}
	xs, _ := sexp.ListToSlice(v)
	return xs
}

func show(v sexp.Value, err error) string {
	if err != nil {
		return "error"
	}
	return sexp.Print(v)
}

func profSums(p *s1.Profile) (ops, cycles int64) {
	for op := range p.OpCount {
		ops += p.OpCount[op]
		cycles += p.OpCycles[op]
	}
	return ops, cycles
}

// yieldCall runs f as a task of s, a one-worker stress scheduler, with
// m's safepoints wired to the task's and a rival task competing for the
// worker, so every safepoint parks the call and hands the worker over.
// It checks property 4 as it goes, and returns how many times the call
// parked: the hook's calls, each of which parks under Stress.
func yieldCall(s *sched.Sched, m *s1.Machine, f func() string) (got string, parks int64, err error) {
	done, rival := make(chan struct{}), make(chan error)
	go func() {
		rival <- s.Run(context.Background(), "rival", func(tk *sched.Task) error {
			for {
				select {
				case <-done:
					return nil
				default:
					tk.Safepoint(1, false)
				}
			}
		})
	}()
	var charged int64
	err = s.Run(context.Background(), "program", func(tk *sched.Task) error {
		var hookErr error
		m.OnSafepoint = func(cycles int64, preempted bool) error {
			parks++
			if charged += cycles; (cycles < 0 || charged != m.Stats.Cycles) && hookErr == nil {
				hookErr = fmt.Errorf("safepoint delta %d brings the charge to %d of %d cycles", cycles, charged, m.Stats.Cycles)
			}
			return tk.Safepoint(cycles, preempted)
		}
		defer func() { m.OnSafepoint = nil }()
		got = f()
		return hookErr
	})
	close(done)
	if rerr := <-rival; err == nil {
		err = rerr
	}
	if err == nil && m.Stats.Cycles < charged {
		err = fmt.Errorf("charged %d cycles, more than the %d the call retired", charged, m.Stats.Cycles)
	}
	return got, parks, err
}
