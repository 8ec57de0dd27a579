package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceEvent is one Chrome trace-event (the Trace Event Format consumed
// by Perfetto and chrome://tracing). B/E pairs carry phase spans, "i"
// events carry optimizer rule fires, "M" events name the threads.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON Object Format container.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const tracePid = 1

func usec(d int64) float64 { return float64(d) / 1e3 }

// WriteTrace emits the recorded spans, rule events and instants as
// Chrome trace-event JSON. Each worker becomes a thread (tid = worker
// id); spans become properly nested B/E pairs with non-decreasing
// timestamps per thread; rule fires and instants become thread-scoped
// instant events. A worker that has only instants (e.g. the runtime
// timeline carrying GC pauses) still gets a thread.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: no recorder")
	}
	spans := r.Spans()
	rules := r.Rules()
	instants := r.Instants()
	r.mu.Lock()
	names := make(map[int]string, len(r.threadNames))
	for k, v := range r.threadNames {
		names[k] = v
	}
	r.mu.Unlock()

	byWorker := map[int][]Span{}
	widSet := map[int]bool{}
	for _, s := range spans {
		byWorker[s.Worker] = append(byWorker[s.Worker], s)
		widSet[s.Worker] = true
	}
	for _, ev := range rules {
		widSet[ev.Worker] = true
	}
	for _, ev := range instants {
		widSet[ev.Worker] = true
	}
	workers := make([]int, 0, len(widSet))
	for wid := range widSet {
		workers = append(workers, wid)
	}
	sort.Ints(workers)

	var events []traceEvent
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: tracePid, Tid: 0,
		Args: map[string]any{"name": "slc compile pipeline"},
	})
	for _, wid := range workers {
		name := names[wid]
		if name == "" {
			if wid == 0 {
				name = "driver"
			} else {
				name = fmt.Sprintf("worker %d", wid)
			}
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: wid,
			Args: map[string]any{"name": name},
		})
	}

	for _, wid := range workers {
		tl := workerTimeline(wid, byWorker[wid])
		// Merge this worker's rule fires and instants into its timeline by
		// timestamp; instants never affect B/E nesting.
		insert := func(ie traceEvent) {
			at := sort.Search(len(tl), func(i int) bool { return tl[i].Ts > ie.Ts })
			tl = append(tl, traceEvent{})
			copy(tl[at+1:], tl[at:])
			tl[at] = ie
		}
		for _, ev := range rules {
			if ev.Worker != wid {
				continue
			}
			insert(traceEvent{
				Name: ev.Rule, Cat: "rule", Ph: "i", Ts: usec(int64(ev.Ts)),
				Pid: tracePid, Tid: wid, S: "t",
				Args: map[string]any{"unit": ev.Unit},
			})
		}
		for _, ev := range instants {
			if ev.Worker != wid {
				continue
			}
			cat := ev.Cat
			if cat == "" {
				cat = "event"
			}
			insert(traceEvent{
				Name: ev.Name, Cat: cat, Ph: "i", Ts: usec(int64(ev.Ts)),
				Pid: tracePid, Tid: wid, S: "t", Args: ev.Args,
			})
		}
		events = append(events, tl...)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// workerTimeline turns one worker's spans into an ordered B/E event
// stream. Spans on one worker either nest or are disjoint (each worker
// is a single goroutine with bracketed Start/End calls), so a
// containment forest ordered by (start asc, end desc) yields properly
// nested pairs with non-decreasing timestamps.
func workerTimeline(wid int, spans []Span) []traceEvent {
	type node struct {
		s        Span
		children []*node
	}
	ordered := make([]Span, len(spans))
	copy(ordered, spans)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].End > ordered[j].End
	})
	var roots []*node
	var stk []*node
	contains := func(p, c Span) bool { return c.Start >= p.Start && c.End <= p.End }
	for _, s := range ordered {
		n := &node{s: s}
		for len(stk) > 0 && !contains(stk[len(stk)-1].s, s) {
			stk = stk[:len(stk)-1]
		}
		if len(stk) == 0 {
			roots = append(roots, n)
		} else {
			top := stk[len(stk)-1]
			top.children = append(top.children, n)
		}
		stk = append(stk, n)
	}
	var out []traceEvent
	var walk func(n *node)
	walk = func(n *node) {
		args := map[string]any{"unit": n.s.Unit}
		if n.s.Nodes > 0 {
			args["nodes"] = n.s.Nodes
		}
		out = append(out, traceEvent{
			Name: n.s.Phase, Cat: "phase", Ph: "B", Ts: usec(int64(n.s.Start)),
			Pid: tracePid, Tid: wid, Args: args,
		})
		for _, c := range n.children {
			walk(c)
		}
		out = append(out, traceEvent{
			Name: n.s.Phase, Ph: "E", Ts: usec(int64(n.s.End)),
			Pid: tracePid, Tid: wid,
		})
	}
	for _, n := range roots {
		walk(n)
	}
	return out
}

// TraceSummary describes a validated trace file.
type TraceSummary struct {
	Events   int
	Spans    int
	Instants int
	Workers  int
}

// ValidateTrace checks a Chrome trace-event JSON file for
// well-formedness: it must parse, every B must have a matching E with
// the same name on the same thread (properly nested), and timestamps
// must be non-decreasing per thread. This is the golden checker used by
// the trace tests and cmd/tracecheck.
func ValidateTrace(data []byte) (TraceSummary, error) {
	var sum TraceSummary
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return sum, fmt.Errorf("trace is not valid JSON: %w", err)
	}
	sum.Events = len(tf.TraceEvents)
	stacks := map[int][]string{}
	lastTs := map[int]float64{}
	seen := map[int]bool{}
	for i, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		seen[ev.Tid] = true
		if last, ok := lastTs[ev.Tid]; ok && ev.Ts < last {
			return sum, fmt.Errorf("event %d (%s %q tid %d): timestamp %g before %g",
				i, ev.Ph, ev.Name, ev.Tid, ev.Ts, last)
		}
		lastTs[ev.Tid] = ev.Ts
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(stacks[ev.Tid], ev.Name)
			sum.Spans++
		case "E":
			stk := stacks[ev.Tid]
			if len(stk) == 0 {
				return sum, fmt.Errorf("event %d: E %q on tid %d with empty stack", i, ev.Name, ev.Tid)
			}
			if top := stk[len(stk)-1]; ev.Name != "" && ev.Name != top {
				return sum, fmt.Errorf("event %d: E %q does not match open B %q on tid %d", i, ev.Name, top, ev.Tid)
			}
			stacks[ev.Tid] = stk[:len(stk)-1]
		case "i", "I":
			sum.Instants++
		default:
			return sum, fmt.Errorf("event %d: unsupported phase %q", i, ev.Ph)
		}
	}
	for tid, stk := range stacks {
		if len(stk) > 0 {
			return sum, fmt.Errorf("tid %d: %d unclosed span(s), first %q", tid, len(stk), stk[0])
		}
	}
	sum.Workers = len(seen)
	return sum, nil
}
