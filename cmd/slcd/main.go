// Command slcd is the long-running compile/eval daemon: a local
// HTTP/JSON service that compiles Lisp source and runs compiled
// functions on the S-1 simulator, request by request, without dying.
//
// Each request runs in a fresh per-request system under its own step
// and heap budgets with a context deadline; compile errors, runtime
// faults, panics and timeouts all degrade to structured JSON
// diagnostics while the daemon keeps serving. SIGINT/SIGTERM drain
// in-flight requests (bounded by -drain-timeout) before exit.
//
// Scheduling (DESIGN.md §16): every request — /compile, /run and
// /session alike — runs under an M:N machine scheduler. At most
// -workers machines execute at once; everyone else parks at simulator
// safepoints, and slots are granted by deficit round-robin over tenants
// so a flooding tenant cannot starve a polite one. Admission is
// bounded: past -workers running plus -queue-depth admitted behind
// them, slcd sheds with 429 + Retry-After. With -gas-rate set, each
// tenant gets a gas budget in simulated S-1 cycles (burst -gas-burst);
// exhausting it is a typed 429, not a timeout.
// POST /session creates a resident session — a machine that keeps its
// definitions and heap between requests ({"session": id} on /run
// resumes it) — bounded by -max-sessions and expired after
// -session-idle-ttl idle. With -snapshot-dir, a clean drain checkpoints
// every session and the next boot restores them; after a hard kill the
// manifest reports them lost on /readyz (degraded, still serving).
//
// The durable compile cache (-cache-dir) is shared across requests and
// across processes: it is crash-safe (temp-file + atomic rename,
// per-entry checksums, flock) and self-healing (startup recovery
// quarantines torn entries; a circuit breaker shunts it after repeated
// corruption). See DESIGN.md §11.
//
// Warm boot (DESIGN.md §14): with -prelude, every request's system gets
// that library pre-loaded; with -snapshot-dir, the compiled prelude is
// served from a crash-safe verified snapshot — the daemon restores it
// at startup instead of recompiling, writes a checkpoint after a cold
// prelude compile, and re-checkpoints on SIGUSR1 or POST
// /admin/checkpoint. A missing, stale or corrupt snapshot degrades to a
// cold compile (corrupt files are quarantined), never a crash.
//
// Observability (DESIGN.md §13): every request gets a W3C traceparent
// (accepted or generated) that links its daemon span, compile phases,
// GC pauses and cache traffic; an always-on flight recorder of the
// last -events runtime events serves at /debug/events and dumps as
// JSON on SIGQUIT or panic; request/phase/GC latency histograms export
// on /metrics; logs are structured JSON on stderr (trace-correlated).
//
// Usage:
//
//	slcd -addr localhost:7171 -cache-dir /tmp/slc-cache -debug-addr localhost:6060
//
//	curl -s localhost:7171/run -d '{
//	  "source": "(defun exptl (b n a) (if (= n 0) a (exptl b (- n 1) (* a b))))",
//	  "fn": "exptl", "args": ["2", "10", "1"]
//	}'
//
// Health, readiness and the request-span ring are served off
// -debug-addr: /healthz, /readyz, /requests, plus /metrics,
// /debug/events and /debug/pprof. Append ?trace=1 to /run or /compile
// for a per-request Chrome trace in the response.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/compilecache"
	"repro/internal/daemon"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slcd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "localhost:7171", "API listen address")
		workers    = flag.Int("workers", 0, "concurrently executing machines; further admitted requests park in the scheduler (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 16, "requests admitted beyond -workers before shedding")
		reqTimeout = flag.Duration("req-timeout", 10*time.Second, "per-request deadline")
		drainTime  = flag.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight requests at shutdown")
		maxSteps   = flag.Int64("max-steps", 50_000_000, "per-request simulator instruction budget (0 = machine default)")
		maxHeap    = flag.Int64("max-heap", 4<<20, "per-request live heap word budget, boxed bignums and strings included (0 = unlimited)")
		cacheDir   = flag.String("cache-dir", "", "durable on-disk compile cache directory shared across requests and processes")
		preludeF   = flag.String("prelude", "", "Lisp source file loaded into every request's system (the daemon's standard library)")
		snapDir    = flag.String("snapshot-dir", "", "durable machine-snapshot directory for warm boot and session durability across restarts")
		faultSpec  = flag.String("fault", "", "fault-injection plan, e.g. 'disk:*:cache-write;request:unit=slow:deadline' (default $SLC_FAULT)")
		optWatch   = flag.Duration("opt-watchdog", 5*time.Second, "wall-clock budget for each unit's optimizer fixpoint (0 = none)")
		gasRate    = flag.Int64("gas-rate", 0, "per-tenant gas refill in simulated S-1 cycles per second (0 = gas metering off)")
		gasBurst   = flag.Int64("gas-burst", 0, "per-tenant gas bucket capacity in cycles (0 = 10x -gas-rate)")
		maxSess    = flag.Int("max-sessions", 10000, "resident sessions held at once")
		sessTTL    = flag.Duration("session-idle-ttl", 30*time.Minute, "expire sessions idle longer than this (0 = never)")
		debugAddr  = flag.String("debug-addr", "", "serve /healthz, /readyz, /requests, /metrics, /debug/events and /debug/pprof on this address")
		events     = flag.Int("events", obs.DefaultFlightSize, "flight recorder capacity (most recent events kept)")
		logText    = flag.Bool("log-text", false, "log human-readable text instead of JSON")
	)
	flag.Parse()

	var handler slog.Handler
	if *logText {
		handler = slog.NewTextHandler(os.Stderr, nil)
	} else {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	flight := obs.NewFlight(*events)
	// A daemon panic that escapes everything still leaves a post-mortem:
	// the flight recorder's recent events go to stderr before the crash
	// propagates.
	defer func() {
		if r := recover(); r != nil {
			log.Error("panic, dumping flight recorder", "panic", fmt.Sprint(r))
			flight.WriteJSON(os.Stderr, obs.Filter{})
			panic(r)
		}
	}()

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
	if faultPlan != nil {
		faultPlan.OnFire = func(kind, phase, unit string) {
			flight.Record(obs.Event{Kind: obs.EvFault, Unit: unit,
				Msg: fmt.Sprintf("%s fault at %s", kind, phase)})
		}
	}

	cfg := daemon.Config{
		SchedWorkers:   *workers,
		QueueDepth:     *queueDepth,
		ReqTimeout:     *reqTimeout,
		MaxSteps:       *maxSteps,
		MaxHeapWords:   *maxHeap,
		OptWatchdog:    *optWatch,
		Fault:          faultPlan,
		GasRate:        *gasRate,
		GasBurst:       *gasBurst,
		MaxSessions:    *maxSess,
		SessionIdleTTL: *sessTTL,
		Flight:         flight,
		Logger:         log,
	}
	if *cacheDir != "" {
		d, err := compilecache.OpenDisk(*cacheDir, faultPlan)
		if err != nil {
			return err
		}
		defer d.Close()
		cfg.Disk = d
		log.Info("durable cache open", "dir", *cacheDir)
	}
	if *preludeF != "" {
		b, err := os.ReadFile(*preludeF)
		if err != nil {
			return err
		}
		cfg.Prelude = string(b)
	}
	if *snapDir != "" {
		// Without -prelude the store still backs session durability
		// (drain-time checkpoints + the session manifest); warm boot just
		// has nothing to restore.
		st, err := snapshot.OpenStore(*snapDir, faultPlan)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Snapshots = st
		log.Info("snapshot store open", "dir", *snapDir)
	}
	srv := daemon.New(cfg)
	// Arm warm boot: restore the pinned snapshot or cold compile the
	// prelude and checkpoint. Only an uncompilable prelude is fatal.
	if err := srv.Boot(); err != nil {
		return err
	}

	if *debugAddr != "" {
		reg := obs.NewRegistry()
		srv.Register(reg)
		dbg, err := obs.StartDebugServer(*debugAddr, reg, srv.RegisterDebug)
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Info("debug server up", "addr", "http://"+dbg.Addr(),
			"endpoints", "/healthz /readyz /requests /metrics /debug/events /debug/pprof")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Info("slcd serving", "addr", "http://"+ln.Addr().String(),
		"endpoints", "POST /compile, POST /run, POST/GET/DELETE /session")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT, syscall.SIGUSR1)
loop:
	for {
		select {
		case sig := <-sigc:
			switch sig {
			case syscall.SIGUSR1:
				// Operator-requested re-checkpoint (the signal spelling of
				// POST /admin/checkpoint); failure logs and keeps serving.
				if err := srv.Checkpoint(); err != nil {
					log.Warn("SIGUSR1 checkpoint failed", "err", err.Error())
				} else {
					log.Info("SIGUSR1 checkpoint written")
				}
				continue
			case syscall.SIGQUIT:
				// Post-mortem on demand: dump the flight recorder as JSON and
				// exit non-zero (mirroring the Go runtime's SIGQUIT convention
				// of "crash with state", minus the goroutine dump).
				log.Error("SIGQUIT: dumping flight recorder")
				fmt.Fprintln(os.Stderr, ";; flight recorder dump")
				flight.WriteJSON(os.Stderr, obs.Filter{})
				hs.Close()
				os.Exit(2)
			}
			log.Info("draining in-flight requests", "signal", sig.String())
			break loop
		case err := <-errc:
			return err
		}
	}

	// Drain: stop admitting, finish in-flight work, then close the
	// listener. Shutdown alone would wait on requests too, but Drain
	// flips readiness first so load balancers stop routing here.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		hs.Close()
		return err
	}
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	log.Info("drained cleanly")
	return nil
}
