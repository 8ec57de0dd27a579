// Command perfbench is the repository's end-to-end benchmark. It drives
// the compiler, the S-1 simulator and the slcd daemon from outside,
// through their public functions, on four seeded workloads:
//
//	compile          cold loads of a generated corpus of defuns
//	run              the paper kernels plus Gabriel-style programs, compiled once
//	serve            a loopback daemon under a closed loop of two clients
//	serve-contended  the same daemon with one execution slot and two tenants
//
// Every output is checked against the interpreter (internal/interp),
// which is the oracle. With -trace 0 it prints the end-to-end metrics;
// with -trace 1 it turns on the existing observation hooks and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload compile -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a workload's metrics and failures.
type report struct {
	metrics   map[string]metric
	attempted int
	failedOps int
	failures  map[string]int // what went wrong, by name -> count
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, failures: map[string]int{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// done counts one attempted op.
func (r *report) done(ok bool) {
	r.attempted++
	if !ok {
		r.failedOps++
	}
}

// mismatch records a wrong output under name; the op it belongs to
// still has to be counted with done(false).
func (r *report) mismatch(name, got, want string) {
	if r.failures[name] == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG %s: got %s, want %s\n", name, got, want)
	}
	r.failures[name]++
}

// fail counts one attempted op that did not complete.
func (r *report) fail(name string, err error) {
	if r.failures[name] == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", name, err)
	}
	r.failures[name]++
	r.done(false)
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// scale multiplies every fixed op count; the self-check tests run at
	// a small scale.
	scale float64
	// workDir holds the daemon's cache and snapshot directories.
	workDir string
}

// ops returns a workload's fixed op count: perSecond ops for every
// requested second, at the configured scale, and at least min.
func (c config) ops(perSecond float64, min int) int {
	n := int(perSecond*float64(c.seconds)*c.scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// opsPerSecond fixes each workload's op count per requested second
// (sized so the timed window lasts a little less than that on a shared
// 2-vCPU Xeon VM; serve-contended's light client gets at least 1000
// requests in 20 seconds);
// the count, not a deadline, ends the window, so every run of one seed
// does identical work.
var opsPerSecond = map[string]float64{
	"compile":         8.5,
	"run":             25,
	"serve":           450,
	"serve-contended": 52,
}

// setups is how many fresh set-ups a run times; setup_s is their median.
const setups = 5

var workloads = map[string]func(config, *report) error{
	"compile":         runCompile,
	"run":             runKernels,
	"serve":           runServe,
	"serve-contended": runServeContended,
}

func main() {
	var (
		workload = flag.String("workload", "", "compile, run, serve or serve-contended")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "approximate length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workDir  = flag.String("work-dir", ".bench_build/work", "scratch directory for daemon state")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	// One process generates all load at the machine's processor count, so
	// the numbers measure the program and not the Go scheduler.
	runtime.GOMAXPROCS(runtime.NumCPU())
	printEnv(*seed)
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workDir, *workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, workDir: dir}
	rep, err := runWorkload(fn, cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if rep.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", *workload)
		os.Exit(1)
	}
	printSummary(rep)
	out, err := json.Marshal(result{
		Correct: rep.failedOps == 0, Attempted: rep.attempted,
		Failed: rep.failedOps, Metrics: rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runWorkload runs one workload and completes its metric set: the
// per-layer table when traced, peak memory when not.
func runWorkload(fn func(config, *report) error, cfg config) (*report, error) {
	rep := newReport()
	if err := fn(cfg, rep); err != nil {
		return nil, err
	}
	if cfg.trace {
		fillLayers(rep)
	} else {
		rep.set("peak_rss_mb", "MB", peakRSSMB())
	}
	return rep, nil
}

// printEnv writes the environment block to standard error.
func printEnv(seed int64) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(os.Stderr, ";; cpu=%q nproc=%d GOMAXPROCS=%d go=%s seed=%d default_seed=1\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed)
}

// printSummary writes the metrics as a table to standard error.
func printSummary(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.metrics[k]
		fmt.Fprintf(os.Stderr, ";; %-34s %16.6f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, ";; attempted=%d failed=%d\n", rep.attempted, rep.failedOps)
	failed := make([]string, 0, len(rep.failures))
	for k := range rep.failures {
		failed = append(failed, k)
	}
	sort.Strings(failed)
	for _, k := range failed {
		fmt.Fprintf(os.Stderr, ";; wrong or failed: %s x%d\n", k, rep.failures[k])
	}
}

// timeSetups builds the workload state setups times from scratch and
// returns the last instance with the median set-up time in seconds.
// Each earlier instance is closed, and the Go heap collected, before the
// next build starts, so set-ups do not overlap in memory.
func timeSetups[T any](build func(i int) (T, error), close func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			close(cur)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build(i)
		d := time.Since(t0).Seconds()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, d)
		cur = v
	}
	return cur, median(times), nil
}
