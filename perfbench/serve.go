package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/s1"
	"repro/internal/snapshot"
)

// servePrelude is the daemon's standard library for the serve
// workloads: every stateless request restores it from the boot
// snapshot.
const servePrelude = `
(defun bench-sq (x) (* x x))
(defun bench-sum (l) (if (null l) 0 (+ (car l) (bench-sum (cdr l)))))
(defun bench-range (n)
  (prog (acc)
    (setq acc nil)
   loop
    (if (< n 1) (return acc) nil)
    (setq acc (cons n acc) n (- n 1))
    (go loop)))
`

// sessionSrc is evaluated into every resident session: a stateful
// accumulator, so each session request depends on the ones before it.
const sessionSrc = `
(defvar *acc* 0)
(defun sess-step (k)
  (setq *acc* (rem (+ (* *acc* 31) (bench-sum (bench-range k))) 100003))
  *acc*)
`

// hotSrc is the serve-contended hot tenant's program: tens of
// milliseconds of pure evaluation per request.
const hotSrc = `
(defun hot-spin (n c)
  (prog (i s)
    (setq i 0 s c)
   loop
    (if (>=& i n) (return s) nil)
    (setq s (rem (+& (*& s 3) i) 65521) i (+& i 1))
    (go loop)))
`

const (
	poolSize        = 32 // distinct stateless programs
	sessionsPerConn = 2
	clients         = 2
	hotSpinIters    = 40000
)

// request is one planned API call and the value it must return.
type request struct {
	class string // "warm" (stateless), "session" or "hot"
	body  daemon.Request
	want  string
}

// poolProgram builds stateless program i: two corpus defun groups (the
// templates are fixed by i, the constants by the seed) and an entry
// function combining them with the prelude.
func poolProgram(seed int64, i int) (src, fn string, probes []probe) {
	nt := len(corpusTemplates)
	r := rand.New(rand.NewSource(seed*1000 + int64(i)))
	body, ps := genGroups(r, []int{i % nt, (i + 1 + i/nt) % nt})
	body = strings.TrimPrefix(body, corpusPrelude)
	fn = fmt.Sprintf("pool-%d", i)
	var calls []string
	for _, p := range ps {
		calls = append(calls, "("+p.fn+" "+strings.Join(p.args, " ")+")")
	}
	src = body + fmt.Sprintf("(defun %s (x) (list %s (bench-sq x) (bench-sum (bench-range x))))\n",
		fn, strings.Join(calls, " "))
	// The special template reads *bench-scale*; declare it per program.
	src = corpusPrelude + src
	return src, fn, []probe{{fn: fn, args: []string{strconv.Itoa(5 + i%7)}}}
}

// servePlan is the seeded request plan of a serve workload.
type servePlan struct {
	pool     []request // one stateless request per pool program
	clients  [][]request
	warm     [][]request // each client's untimed prefix
	sessions int         // sessions each client creates
}

// planServe lays out each client's request sequence: 70% stateless
// pool programs, visiting the pool round-robin, and 30% calls into the
// client's own sessions, all in a seeded order. The mix is stratified so
// every seed does the same amount of simulated work. Expected values
// come from the interpreter, replaying each session's calls in order.
func planServe(seed int64, perClient, warmSessionCalls int, withSessions bool) (*servePlan, error) {
	p := &servePlan{}
	for i := 0; i < poolSize; i++ {
		src, fn, pr := poolProgram(seed, i)
		if err := oracle(servePrelude+src, nil, pr); err != nil {
			return nil, err
		}
		p.pool = append(p.pool, request{class: "warm",
			body: daemon.Request{Source: src, Fn: fn, Args: pr[0].args}, want: pr[0].want})
	}
	if withSessions {
		p.sessions = sessionsPerConn
	}
	for c := 0; c < clients; c++ {
		r := rand.New(rand.NewSource(seed*7919 + int64(c)))
		// One interpreter per session replays its calls in order.
		sess := make([]*interp.Interp, p.sessions)
		for i := range sess {
			var err error
			if sess[i], err = newOracle(servePrelude+sessionSrc, nil); err != nil {
				return nil, err
			}
		}
		calls := 0
		next := func() (request, error) {
			s := calls % p.sessions
			args := []string{strconv.Itoa(3 + (calls/p.sessions)%20)}
			calls++
			want, err := expect(sess[s], "sess-step", args)
			return request{class: "session", want: want, body: daemon.Request{
				Fn: "sess-step", Args: args, Tenant: tenantName(c), Session: sessionKey(c, s)}}, err
		}
		var warm, seq []request
		for i := 0; i < warmSessionCalls*p.sessions; i++ {
			q, err := next()
			if err != nil {
				return nil, err
			}
			warm = append(warm, q)
		}
		nSess := 0
		if p.sessions > 0 {
			nSess = perClient * 3 / 10
		}
		kinds := make([]bool, perClient) // true = session call
		for i := 0; i < nSess; i++ {
			kinds[i] = true
		}
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		pool := r.Perm(poolSize)
		picks := 0
		for _, isSess := range kinds {
			if isSess {
				q, err := next()
				if err != nil {
					return nil, err
				}
				seq = append(seq, q)
				continue
			}
			q := p.pool[pool[picks%poolSize]]
			picks++
			q.body.Tenant = tenantName(c)
			seq = append(seq, q)
		}
		p.warm = append(p.warm, warm)
		p.clients = append(p.clients, seq)
	}
	return p, nil
}

func tenantName(c int) string { return fmt.Sprintf("client-%d", c) }

// sessionKey is a placeholder the client swaps for the session id the
// server assigned at set-up.
func sessionKey(c, s int) string { return fmt.Sprintf("@%d/%d", c, s) }

// bench is one running daemon with its loopback listeners.
type bench struct {
	dir      string
	srv      *daemon.Server
	disk     *compilecache.Disk
	store    *snapshot.Store
	api      *http.Server
	apiURL   string
	dbg      *obs.DebugServer
	sessions map[string]string // sessionKey -> server session id
	conns    []*http.Client
}

// startBench builds a daemon the way slcd's flag defaults do (50M
// steps, 4M heap words, 5s optimizer watchdog, default tier threshold)
// with the benchmark prelude, a durable cache directory and a snapshot
// directory, boots it, and creates each client's sessions.
func startBench(dir string, schedWorkers, sessions int) (*bench, error) {
	b := &bench{dir: dir, sessions: map[string]string{}}
	var err error
	if b.disk, err = compilecache.OpenDisk(filepath.Join(dir, "cache"), nil); err != nil {
		return nil, err
	}
	if b.store, err = snapshot.OpenStore(filepath.Join(dir, "snap"), nil); err != nil {
		b.close()
		return nil, err
	}
	b.srv = daemon.New(daemon.Config{
		MaxSteps:     50_000_000,
		MaxHeapWords: 4 << 20,
		OptWatchdog:  5 * time.Second,
		HotThreshold: s1.DefaultHotThreshold,
		Disk:         b.disk,
		Snapshots:    b.store,
		Prelude:      servePrelude,
		SchedWorkers: schedWorkers,
	})
	if err := b.srv.Boot(); err != nil {
		b.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.api = &http.Server{Handler: b.srv}
	go b.api.Serve(ln)
	b.apiURL = "http://" + ln.Addr().String()
	reg := obs.NewRegistry()
	b.srv.Register(reg)
	if b.dbg, err = obs.StartDebugServer("127.0.0.1:0", reg, b.srv.RegisterDebug); err != nil {
		b.close()
		return nil, err
	}
	for c := 0; c < clients; c++ {
		b.conns = append(b.conns, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		}})
		for s := 0; s < sessions; s++ {
			var resp daemon.Response
			if err := b.post(c, "/session", daemon.Request{Source: sessionSrc, Tenant: tenantName(c)}, &resp); err != nil {
				b.close()
				return nil, err
			}
			if !resp.OK {
				b.close()
				return nil, fmt.Errorf("session create: %+v", resp.Diagnostics)
			}
			b.sessions[sessionKey(c, s)] = resp.Session
		}
	}
	return b, nil
}

func (b *bench) close() {
	if b.api != nil {
		b.api.Close()
	}
	if b.dbg != nil {
		b.dbg.Close()
	}
	for _, c := range b.conns {
		c.CloseIdleConnections()
	}
	if b.disk != nil {
		b.disk.Close()
	}
	if b.store != nil {
		b.store.Close()
	}
	os.RemoveAll(b.dir)
}

// post sends one API request on client c's keep-alive connection.
func (b *bench) post(c int, path string, body daemon.Request, out *daemon.Response) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := b.conns[c].Post(b.apiURL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: status %d: %w", path, resp.StatusCode, err)
	}
	return nil
}

// scrape reads the daemon's /metrics exposition, the same text an
// operator's collector reads.
func (b *bench) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + b.dbg.Addr() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sample is one completed request as the client saw it.
type sample struct {
	class     string
	at        time.Time // completion
	clientMs  float64
	handlerMs float64
	trace     json.RawMessage
}

// drive sends seq on client c, checking each reply, until seq is done
// or stop is closed; it returns the samples of checked, correct replies.
func (b *bench) drive(rep *report, mu *sync.Mutex, c int, seq []request, traced bool, stop <-chan struct{}) []sample {
	path := "/run"
	if traced {
		path = "/run?trace=1"
	}
	var out []sample
	for _, q := range seq {
		select {
		case <-stop:
			return out
		default:
		}
		body := q.body
		if body.Session != "" {
			body.Session = b.sessions[body.Session]
		}
		var resp daemon.Response
		t0 := time.Now()
		err := b.post(c, path, body, &resp)
		d := time.Since(t0)
		mu.Lock()
		switch {
		case err != nil:
			rep.fail(q.class+"/"+q.body.Fn, err)
		case !resp.OK || resp.Value != q.want:
			got := resp.Value
			if !resp.OK {
				got = fmt.Sprintf("error %+v", resp.Diagnostics)
			}
			rep.mismatch(q.class+"/"+q.body.Fn, got, q.want)
			rep.done(false)
		default:
			rep.done(true)
			out = append(out, sample{class: q.class, at: t0.Add(d), clientMs: ms(d),
				handlerMs: resp.DurationMs, trace: resp.Trace})
		}
		mu.Unlock()
	}
	return out
}

// warmUp sends every pool program twice (the first compiles it into the
// disk cache, the second replays it from there) and then each client's
// untimed prefix, failing on any wrong reply.
func (b *bench) warmUp(p *servePlan) error {
	rep := newReport()
	var mu sync.Mutex
	b.drive(rep, &mu, 0, p.pool, false, nil)
	b.drive(rep, &mu, 0, p.pool, false, nil)
	for c, w := range p.warm {
		b.drive(rep, &mu, c, w, false, nil)
	}
	if rep.failedOps > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", rep.failedOps, rep.attempted)
	}
	return nil
}

// serveWindow is one timed window's client view and /metrics diff.
type serveWindow struct {
	samples [][]sample // per client
	start   time.Time
	secs    float64
	delta   map[string]float64
	disk    compilecache.DiskStats
}

// window runs every client's sequence concurrently from a common start.
// Clients marked in loopers repeat their sequence until every other
// client has finished, which closes the window.
func (b *bench) window(rep *report, seqs [][]request, traced bool, loopers map[int]bool) (*serveWindow, error) {
	runtime.GC()
	m0, err := b.scrape()
	if err != nil {
		return nil, err
	}
	d0 := b.disk.Stats()
	w := &serveWindow{samples: make([][]sample, len(seqs))}
	var mu sync.Mutex
	var wg, fixed sync.WaitGroup
	stop := make(chan struct{})
	start := make(chan struct{})
	for c := range seqs {
		c := c
		wg.Add(1)
		if !loopers[c] {
			fixed.Add(1)
		}
		go func() {
			defer wg.Done()
			<-start
			if !loopers[c] {
				w.samples[c] = b.drive(rep, &mu, c, seqs[c], traced, nil)
				fixed.Done()
				return
			}
			// A looper repeats its sequence until the fixed clients end.
			for {
				w.samples[c] = append(w.samples[c], b.drive(rep, &mu, c, seqs[c], traced, stop)...)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	t0 := time.Now()
	close(start)
	fixed.Wait()
	end := time.Now()
	close(stop)
	wg.Wait()
	w.start, w.secs = t0, end.Sub(t0).Seconds()
	m1, err := b.scrape()
	if err != nil {
		return nil, err
	}
	w.delta = map[string]float64{}
	for k, v := range m1 {
		w.delta[k] = v - m0[k]
	}
	d1 := b.disk.Stats()
	w.disk = compilecache.DiskStats{Hits: d1.Hits - d0.Hits, Misses: d1.Misses - d0.Misses,
		Stores: d1.Stores - d0.Stores}
	return w, nil
}

// planCode counts the S-1 instructions (and static MOVs) of the
// prelude once plus each source compiled on top of it, on fresh default
// systems.
func planCode(sources ...string) (instrs, movs int, err error) {
	load := func(src string) (int, int, error) {
		sys := core.NewSystem(core.Options{})
		if err := sys.LoadString(servePrelude + src); err != nil {
			return 0, 0, err
		}
		return codeInstrs(sys)
	}
	n0, m0, err := load("")
	if err != nil {
		return 0, 0, err
	}
	instrs, movs = n0, m0
	for _, src := range sources {
		n, m, err := load(src)
		if err != nil {
			return 0, 0, err
		}
		instrs += n - n0
		movs += m - m0
	}
	return instrs, movs, nil
}

// runServe is the serve workload: two closed-loop keep-alive clients,
// one execution slot each.
func runServe(cfg config, rep *report) error {
	per := cfg.ops(opsPerSecond["serve"]/clients, 50)
	plan, err := planServe(cfg.seed, per, s1.DefaultHotThreshold+6, true)
	if err != nil {
		return err
	}
	b, setupS, err := timeSetups(func(i int) (*bench, error) {
		return startBench(filepath.Join(cfg.workDir, fmt.Sprint("setup-", i)), clients, sessionsPerConn)
	}, (*bench).close)
	if err != nil {
		return err
	}
	defer b.close()
	if err := b.warmUp(plan); err != nil {
		return err
	}
	sources := []string{sessionSrc}
	for _, q := range plan.pool {
		sources = append(sources, q.body.Source)
	}
	instrs, movs, err := planCode(sources...)
	if err != nil {
		return err
	}
	if !cfg.trace {
		w, err := b.window(rep, plan.clients, false, nil)
		if err != nil {
			return err
		}
		rate, p50, _ := sliced(w.class(""), w.secs)
		rep.set("setup_s", "s", setupS)
		rep.set("ops_per_s", "1/s", rate)
		rep.set("p50_ms", "ms", p50)
		rep.set("sim_cycles", "count", w.delta["slcd_eval_cycles_sum"])
		rep.set("code_instrs", "count", float64(instrs))
		return nil
	}
	return traceServe(rep, b, plan.clients, nil, "", movs)
}

// runServeContended is the serve-contended workload: one execution slot
// shared by a hot tenant sending long compute requests and a light
// tenant sending the short stateless requests of serve. The light
// client's fixed sequence sets the window; the hot client loops until
// it ends.
func runServeContended(cfg config, rep *report) error {
	per := cfg.ops(opsPerSecond["serve-contended"], 50)
	plan, err := planServe(cfg.seed, per, 0, false)
	if err != nil {
		return err
	}
	light := plan.clients[0]
	for i := range light {
		light[i].body.Tenant = "light"
	}
	c := rand.New(rand.NewSource(cfg.seed)).Intn(1000)
	hotPr := []probe{{fn: "hot-spin", args: []string{strconv.Itoa(hotSpinIters), strconv.Itoa(c)}}}
	if err := oracle(servePrelude+hotSrc, nil, hotPr); err != nil {
		return err
	}
	hot := []request{{class: "hot", want: hotPr[0].want, body: daemon.Request{
		Source: hotSrc, Fn: "hot-spin", Args: hotPr[0].args, Tenant: "hot"}}}
	b, setupS, err := timeSetups(func(i int) (*bench, error) {
		return startBench(filepath.Join(cfg.workDir, fmt.Sprint("setup-", i)), 1, 0)
	}, (*bench).close)
	if err != nil {
		return err
	}
	defer b.close()
	plan.warm[1] = hot
	if err := b.warmUp(plan); err != nil {
		return err
	}
	sources := []string{hotSrc}
	for _, q := range plan.pool {
		sources = append(sources, q.body.Source)
	}
	instrs, movs, err := planCode(sources...)
	if err != nil {
		return err
	}
	seqs := [][]request{light, hot}
	loopers := map[int]bool{1: true}
	if !cfg.trace {
		w, err := b.window(rep, seqs, false, loopers)
		if err != nil {
			return err
		}
		hotRate, _, _ := sliced(w.class("hot"), w.secs)
		_, p50, _ := sliced(w.class("warm"), w.secs)
		rep.set("setup_s", "s", setupS)
		rep.set("ops_per_s", "1/s", hotRate)
		rep.set("p50_ms", "ms", p50)
		rep.set("sim_cycles", "count", w.delta[`slcd_sched_tenant_cycles_total{tenant="light"}`])
		rep.set("code_instrs", "count", float64(instrs))
		return nil
	}
	return traceServe(rep, b, seqs, loopers, "warm", movs)
}

// class returns the window's samples of one request class ("" = all)
// on the window's clock. Requests a looping client completed after the
// window closed are left out.
func (w *serveWindow) class(class string) []opSample {
	var out []opSample
	for _, ss := range w.samples {
		for _, s := range ss {
			at := s.at.Sub(w.start).Seconds()
			if (class == "" || s.class == class) && at <= w.secs {
				out = append(out, opSample{at, s.clientMs})
			}
		}
	}
	return out
}

// latencies returns the samples' latencies in ms.
func latencies(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// traceServe is the traced run of a serve workload: an untraced half of
// each client's sequence for the overhead baseline and the latency tail
// of the class the workload's p50 is about, then the other half with
// ?trace=1, attributing each request's time to transport, scheduler
// wait, compile phases, GC pauses and the unattributed rest.
func traceServe(rep *report, b *bench, seqs [][]request, loopers map[int]bool, class string, movs int) error {
	first := make([][]request, len(seqs))
	second := make([][]request, len(seqs))
	for c, s := range seqs {
		if loopers[c] {
			first[c], second[c] = s, s
			continue
		}
		first[c], second[c] = s[:len(s)/2], s[len(s)/2:]
	}
	plain, err := b.window(rep, first, false, loopers)
	if err != nil {
		return err
	}
	w, err := b.window(rep, second, true, loopers)
	if err != nil {
		return err
	}
	var n, stateless float64
	var client, handler, compile, gcMs []float64
	var full, minor []float64
	for _, ss := range w.samples {
		for _, s := range ss {
			n++
			if s.class != "session" {
				stateless++
			}
			spans, gf, gm, err := chromeSpans(s.trace)
			if err != nil {
				return err
			}
			a := attribute(spans, -1<<62, 1<<62)
			comp := 0.0
			for _, d := range a.phase {
				comp += ms(d)
			}
			g := 0.0
			for _, d := range gf {
				full = append(full, float64(d.Microseconds()))
				g += ms(d)
			}
			for _, d := range gm {
				minor = append(minor, float64(d.Microseconds()))
				g += ms(d)
			}
			client = append(client, s.clientMs)
			handler = append(handler, s.handlerMs)
			compile = append(compile, comp)
			gcMs = append(gcMs, g)
		}
	}
	d := w.delta
	cl, hd := mean(client), mean(handler)
	wait := ratio(d["slcd_sched_wait_seconds_sum"]*1e3, n)
	parts := map[string]float64{
		"daemon.transport_ms":    cl - hd,
		"sched.wait_ms":          wait,
		"daemon.compile_ms":      mean(compile),
		"gc.pause_ms":            mean(gcMs),
		"daemon.unattributed_ms": hd - wait - mean(compile) - mean(gcMs),
	}
	for k, v := range parts {
		rep.set(k, "ms", v)
	}
	rep.set("daemon.client_ms", "ms", cl)
	rep.set("daemon.handler_ms", "ms", hd)
	rep.set("op.wall_ms", "ms", cl)
	_, _, p99 := sliced(plain.class(class), plain.secs)
	rep.set("daemon.p99_ms", "ms", p99)
	rep.set("daemon.run_warm.p50_ms", "ms", median(latencies(plain.class("warm"))))
	rep.set("daemon.run_session.p50_ms", "ms", median(latencies(plain.class("session"))))
	rep.set("sched.preempts_per_req", "count", ratio(d["slcd_sched_preempts_total"], n))
	rep.set("sched.parks_per_req", "count", ratio(d["slcd_sched_parks_total"], n))
	hot := d[`slcd_sched_tenant_cycles_total{tenant="hot"}`]
	allCycles := 0.0
	for k, v := range d {
		if strings.HasPrefix(k, "slcd_sched_tenant_cycles_total{") {
			allCycles += v
		}
	}
	rep.set("sched.hot_cycles_share", "ratio", ratio(hot, allCycles))
	rep.set("snapshot.restores_per_req", "count", ratio(d["slcd_snapshot_restores_total"], n))
	rep.set("snapshot.restore_failures", "count", d["slcd_snapshot_restore_failures_total"])
	rep.set("compilecache.hit_rate", "ratio",
		ratio(float64(w.disk.Hits), float64(w.disk.Hits+w.disk.Misses)))
	rep.set("compilecache.stores", "count", float64(w.disk.Stores))
	rep.set("s1.arena_recycle_rate", "ratio", ratio(d["slcd_arena_recycles_total"], stateless))
	rep.set("s1.tier.promotions", "count", d["slcd_tier_promotions_total"])
	rep.set("s1.tier.refusions", "count", d["slcd_tier_refusions_total"])
	rep.set("s1.tier.cache_fills", "count", d["slcd_tier_call_cache_fills_total"])
	rep.set("gc.minor_count", "count", ratio(d["slcd_gc_minor_total"], n))
	rep.set("gc.full_count", "count", ratio(d["slcd_gc_full_total"], n))
	rep.set("gc.words_promoted", "count", ratio(d["slcd_gc_promoted_words_total"], n))
	rep.set("gc.minor_pause_p50_us", "us", median(minor))
	rep.set("gc.full_pause_p50_us", "us", median(full))
	rep.set("codegen.static_movs", "count", float64(movs))
	setOverhead(rep, float64(len(plain.class("")))/plain.secs, float64(len(w.class("")))/w.secs)
	if err := checkSum("serve", cl, parts, "daemon.unattributed_ms"); err != nil {
		return err
	}
	if parts["daemon.transport_ms"] < 0 {
		return fmt.Errorf("serve: handler time exceeds client time by %.4f ms", -parts["daemon.transport_ms"])
	}
	return nil
}
