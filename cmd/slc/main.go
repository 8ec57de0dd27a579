// Command slc is the S-1 Lisp compiler driver: it compiles Lisp source
// files to S-1 assembly, optionally prints the §5-style optimizer
// transcript and the generated listings, runs top-level forms and a named
// entry function on the simulator, and reports the machine meters.
//
// Usage:
//
//	slc [flags] file.lisp [args...]
//
// Flags select phases (every phase defaults to on), mirror the paper's
// ablations, and control output:
//
//	slc -listing -transcript examples/testfn.lisp
//	slc -run main -stats prog.lisp 10 20
//	slc -no-tnbind -no-rep -listing prog.lisp
//
// Observability flags (see DESIGN.md §8):
//
//	slc -trace out.json -jobs 4 prog.lisp     # Chrome trace-event JSON
//	slc -phase-stats -rule-stats 10 prog.lisp # aggregate compile reports
//	slc -run main -profile prog.lisp          # runtime cycle profile
//	slc -repl -debug-addr localhost:6060      # /metrics + pprof over HTTP
//
// Fault-tolerance flags (see DESIGN.md §9): a load reports every failed
// unit with its source position and still compiles the rest; the driver
// exits non-zero only when at least one unit failed.
//
//	slc -max-errors 50 prog.lisp              # store up to 50 diagnostics
//	slc -run main -max-steps 1000000 -max-heap 65536 prog.lisp
//	slc -fault 'optimize:defun=exptl:panic' -jobs 8 prog.lisp
//
// Durability flags (see DESIGN.md §11):
//
//	slc -cache-dir /tmp/slc-cache prog.lisp   # crash-safe durable compile cache
//	slc -image-hash prog.lisp                 # print the machine-image fingerprint
//
// Snapshot flags (see DESIGN.md §14): a snapshot is a versioned,
// checksummed serialization of the whole compiled machine; restoring it
// reproduces the image byte-for-byte (verified against the recorded
// fingerprint) without recompiling. A snapshot that fails verification
// degrades to a cold compile with a warning, never a wrong image.
//
//	slc -snapshot-out boot.snap prelude.lisp  # compile once, snapshot
//	slc -snapshot-in boot.snap -run main      # warm boot, no compile
//	slc -snapshot-in boot.snap more.lisp      # warm boot, load more on top
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"

	"repro/internal/codegen"
	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/sexp"
	"repro/internal/snapshot"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		noOpt      = flag.Bool("no-opt", false, "disable the source-level optimizer")
		noTN       = flag.Bool("no-tnbind", false, "disable TNBIND register allocation")
		noRep      = flag.Bool("no-rep", false, "disable representation analysis")
		noPdl      = flag.Bool("no-pdl", false, "disable pdl-number stack allocation")
		noCache    = flag.Bool("no-spec-cache", false, "disable special-variable lookup caching")
		listing    = flag.Bool("listing", false, "print assembly listings for every function")
		transcript = flag.Bool("transcript", false, "print the source-to-source transformation transcript")
		stats      = flag.Bool("stats", false, "print machine meters after execution")
		runFn      = flag.String("run", "", "after loading, call this function with the remaining arguments")
		interpret  = flag.Bool("interp", false, "run -run through the interpreter instead of compiled code")
		replMode   = flag.Bool("repl", false, "start an interactive compiled REPL (after loading files, if any)")
		cacheDir   = flag.String("cache-dir", "", "durable on-disk compile cache directory (crash-safe; shareable between processes)")
		gcNoGen    = flag.Bool("gc-nogen", false, "disable generational GC: every automatic collection is a full mark-sweep")
		imageHash  = flag.Bool("image-hash", false, "print the machine-image fingerprint after loading")
		snapOut    = flag.String("snapshot-out", "", "after a clean load, write a versioned machine snapshot to this file")
		snapIn     = flag.String("snapshot-in", "", "boot from this machine snapshot instead of cold compiling (verified; falls back to cold compile on damage or mismatch)")
		jobs       = flag.Int("jobs", 0, "concurrent compile workers (0 = GOMAXPROCS, 1 = sequential)")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file of the compile pipeline (load in Perfetto)")
		phaseStats = flag.Bool("phase-stats", false, "print an aggregated per-phase compile-time table")
		ruleStats  = flag.Int("rule-stats", 0, "print the top-N optimizer rules by fire count")
		profile    = flag.Bool("profile", false, "profile simulator execution (per-opcode and per-function cycle attribution)")
		folded     = flag.String("folded", "", "with -profile, also write collapsed-stack flamegraph lines to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address")
		maxErrors  = flag.Int("max-errors", 20, "store at most this many error diagnostics per load (-1 = unlimited; failures past the cap are still counted)")
		maxSteps   = flag.Int64("max-steps", 0, "bound total simulator instructions (0 = machine default)")
		maxHeap    = flag.Int64("max-heap", 0, "bound live simulator heap words; exhaustion after GC is a runtime error (0 = unlimited)")
		faultSpec  = flag.String("fault", "", "fault-injection plan, e.g. 'optimize:defun=exptl:panic;rep:defun=f:error' (default $SLC_FAULT)")
		optWatch   = flag.Duration("opt-watchdog", 0, "wall-clock budget for each unit's optimizer fixpoint (0 = none)")
		logJSON    = flag.Bool("log-json", false, "emit informational stderr messages as structured JSON (slog)")
	)
	flag.Parse()

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	var faultPlan *diag.Plan
	{
		var err error
		if *faultSpec != "" {
			faultPlan, err = diag.ParsePlan(*faultSpec)
		} else {
			faultPlan, err = diag.PlanFromEnv()
		}
		if err != nil {
			return err
		}
	}
	// Positional arguments are [file.lisp] [run-args...]. The source file
	// is optional when booting from a snapshot (or into a REPL): with
	// -snapshot-in, a first argument that is not an existing file is
	// taken as the first -run argument instead.
	runArgs := flag.Args()
	var src []byte
	if flag.NArg() >= 1 {
		first := flag.Arg(0)
		if _, err := os.Stat(first); err == nil || *snapIn == "" {
			var rerr error
			if src, rerr = os.ReadFile(first); rerr != nil {
				return rerr
			}
			runArgs = runArgs[1:]
		}
	} else if !*replMode && *snapIn == "" {
		flag.Usage()
		return fmt.Errorf("need a source file (or -repl / -snapshot-in)")
	}

	opts := codegen.DefaultOptions()
	opts.Optimize = !*noOpt
	opts.UseTN = !*noTN
	opts.RepAnalysis = !*noRep
	opts.PdlNumbers = !*noPdl
	opts.SpecialCaching = !*noCache

	sysOpts := core.Options{Codegen: &opts, Out: os.Stdout, Jobs: *jobs,
		MaxErrors: *maxErrors, Fault: faultPlan,
		MaxSteps: *maxSteps, MaxHeapWords: *maxHeap, OptWatchdog: *optWatch,
		GCNoGen: *gcNoGen}
	if *cacheDir != "" {
		d, err := compilecache.OpenDisk(*cacheDir, faultPlan)
		if err != nil {
			return err
		}
		defer d.Close()
		sysOpts.DiskCache = d
	}
	if *transcript {
		sysOpts.OptimizerLog = os.Stdout
	}
	if *traceOut != "" || *phaseStats || *ruleStats > 0 {
		sysOpts.Obs = obs.NewRecorder()
	}
	// The flight recorder is always on (bounded, lock-cheap): GC pauses,
	// GC pauses and cache traffic from this process land in it and
	// serve at /debug/events when -debug-addr is up.
	flight := obs.NewFlight(obs.DefaultFlightSize)
	sysOpts.Flight = flight
	// Boot: from a verified snapshot when -snapshot-in names a usable
	// one, cold otherwise. Snapshot damage is never fatal as long as
	// there is something to cold-compile instead.
	var sys *core.System
	if *snapIn != "" {
		if snap, err := snapshot.ReadFile(*snapIn); err != nil {
			fmt.Fprintf(os.Stderr, "slc: snapshot %s unusable (%v); cold compiling\n", *snapIn, err)
		} else if restored, err := core.RestoreSystem(sysOpts, snap); err != nil {
			fmt.Fprintf(os.Stderr, "slc: snapshot %s failed verification (%v); cold compiling\n", *snapIn, err)
		} else {
			sys = restored
		}
		if sys == nil && len(src) == 0 && !*replMode {
			return fmt.Errorf("snapshot %s unusable and no source file to cold compile", *snapIn)
		}
	}
	if sys == nil {
		sys = core.NewSystem(sysOpts)
	}
	if *profile || *folded != "" {
		sys.EnableProfile()
	}
	if *debugAddr != "" {
		reg := obs.NewRegistry().AddMetrics(sys.MetricsSnapshot).SetFlight(flight)
		srv, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Info("debug server up", "addr", "http://"+srv.Addr(),
			"endpoints", "/metrics /debug/events /debug/pprof")
	}
	// Load with error accumulation: every good unit compiles, every bad
	// one is reported with its source position, and failure of the load
	// is decided at the end so listings/stats of the survivors still
	// print.
	var loadErrors int
	if len(src) > 0 {
		list := sys.LoadStringDiag(string(src))
		for _, d := range list.All() {
			fmt.Fprintf(os.Stderr, "%s:%s\n", flag.Arg(0), d.Error())
		}
		if n := list.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d more error(s) past -max-errors\n", flag.Arg(0), n)
		}
		loadErrors = list.Errors()
	}

	if *imageHash {
		fmt.Println(sys.Machine.ImageFingerprint())
	}

	if *snapOut != "" {
		if loadErrors > 0 {
			fmt.Fprintf(os.Stderr, "slc: not writing %s: load had errors\n", *snapOut)
		} else {
			snap, err := sys.Snapshot()
			if err != nil {
				return err
			}
			if err := snapshot.WriteFile(*snapOut, snap); err != nil {
				return err
			}
			log.Info("snapshot written", "file", *snapOut, "image", snap.Meta.ImageHash)
		}
	}

	if *listing {
		names := make([]string, 0, len(sys.Defs))
		for n := range sys.Defs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			l, err := sys.Listing(n)
			if err != nil {
				return err
			}
			fmt.Println(l)
		}
	}

	if *runFn != "" {
		args := make([]sexp.Value, 0, len(runArgs))
		for _, a := range runArgs {
			v, err := sexp.ReadOne(a)
			if err != nil {
				return fmt.Errorf("argument %q: %w", a, err)
			}
			args = append(args, v)
		}
		var v sexp.Value
		var err error
		if *interpret {
			v, err = sys.Interpret(*runFn, args...)
		} else {
			v, err = sys.Call(*runFn, args...)
		}
		if err != nil {
			return err
		}
		fmt.Println(sexp.Print(v))
	}

	if *stats {
		sys.WriteMeters(os.Stdout, *interpret)
	}
	if *phaseStats {
		sys.Obs.WritePhaseStats(os.Stdout)
	}
	if *ruleStats > 0 {
		sys.Obs.WriteTopRules(os.Stdout, *ruleStats)
	}
	if *profile {
		sys.WriteProfile(os.Stdout)
	}
	if *folded != "" {
		f, err := os.Create(*folded)
		if err != nil {
			return err
		}
		sys.WriteCollapsed(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := sys.Obs.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *replMode {
		return repl(sys, os.Stdin, os.Stdout)
	}
	if loadErrors > 0 {
		return fmt.Errorf("%d compilation unit(s) failed", loadErrors)
	}
	return nil
}
