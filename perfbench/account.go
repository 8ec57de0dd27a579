package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// attribution splits an operation's wall time among the phase spans
// recorded during it. On one worker spans nest or are disjoint, so the
// innermost open span owns each instant (its self time). When several
// workers are inside a span at once, the instant is shared equally among
// them, so the phase totals plus the uncovered remainder add up to the
// wall time exactly, however many workers ran.
type attribution struct {
	phase    map[string]time.Duration // wall-share self time per phase
	outside  time.Duration            // span time falling outside the op window
	poolBusy time.Duration            // span time on pool workers (id > 0)
}

type piece struct {
	start, end time.Duration
	phase      string
	worker     int
}

// selfPieces turns one worker's spans into disjoint (start, end, phase)
// pieces, each owned by the innermost span.
func selfPieces(worker int, spans []obs.Span) []piece {
	s := append([]obs.Span(nil), spans...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return s[i].End > s[j].End
	})
	var out []piece
	var stack []obs.Span
	cursor := time.Duration(-1 << 62)
	// emit closes the top span's self interval up to t.
	emit := func(t time.Duration) {
		if len(stack) == 0 {
			cursor = t
			return
		}
		top := stack[len(stack)-1]
		if t > cursor {
			out = append(out, piece{cursor, t, top.Phase, worker})
		}
		cursor = t
	}
	for _, sp := range s {
		for len(stack) > 0 && stack[len(stack)-1].End <= sp.Start {
			emit(stack[len(stack)-1].End)
			stack = stack[:len(stack)-1]
		}
		emit(sp.Start)
		stack = append(stack, sp)
	}
	for len(stack) > 0 {
		emit(stack[len(stack)-1].End)
		stack = stack[:len(stack)-1]
	}
	return out
}

// attribute computes the wall-share attribution of spans over the op
// window [from, to] (offsets on the spans' clock).
func attribute(spans []obs.Span, from, to time.Duration) attribution {
	a := attribution{phase: map[string]time.Duration{}}
	byWorker := map[int][]obs.Span{}
	for _, sp := range spans {
		byWorker[sp.Worker] = append(byWorker[sp.Worker], sp)
	}
	type edge struct {
		t     time.Duration
		open  bool
		piece int
	}
	var pieces []piece
	for w, ss := range byWorker {
		pieces = append(pieces, selfPieces(w, ss)...)
	}
	var edges []edge
	for i, p := range pieces {
		lo, hi := p.start, p.end
		if lo < from {
			a.outside += min(hi, from) - lo
			lo = from
		}
		if hi > to {
			a.outside += hi - max(lo, to)
			hi = to
		}
		if p.worker > 0 {
			a.poolBusy += p.end - p.start
		}
		if hi <= lo {
			continue
		}
		edges = append(edges, edge{lo, true, i}, edge{hi, false, i})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].open && edges[j].open
	})
	active := map[int]bool{}
	share := map[string]float64{}
	last := from
	for _, e := range edges {
		if dt := e.t - last; dt > 0 && len(active) > 0 {
			k := float64(len(active))
			for i := range active {
				share[pieces[i].phase] += float64(dt) / k
			}
		}
		last = e.t
		if e.open {
			active[e.piece] = true
		} else {
			delete(active, e.piece)
		}
	}
	for ph, d := range share {
		a.phase[ph] = time.Duration(d)
	}
	return a
}

// chromeSpans recovers phase spans from a Chrome trace-event document
// (the ?trace=1 response body): B/E pairs per thread become spans, and
// gc-pause / gc-minor-pause instants contribute their dur_ns. Session
// requests carry no trace; they yield nothing.
func chromeSpans(raw json.RawMessage) (spans []obs.Span, gcFull, gcMinor []time.Duration, err error) {
	if len(raw) == 0 {
		return nil, nil, nil, nil
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, nil, fmt.Errorf("decode request trace: %w", err)
	}
	open := map[int][]obs.Span{}
	for _, ev := range doc.TraceEvents {
		ts := time.Duration(ev.Ts * 1e3)
		switch ev.Ph {
		case "B":
			open[ev.Tid] = append(open[ev.Tid], obs.Span{Phase: ev.Name, Worker: ev.Tid, Start: ts})
		case "E":
			st := open[ev.Tid]
			if len(st) == 0 {
				return nil, nil, nil, fmt.Errorf("request trace: unmatched E %q", ev.Name)
			}
			sp := st[len(st)-1]
			open[ev.Tid] = st[:len(st)-1]
			sp.End = ts
			spans = append(spans, sp)
		case "i":
			d, _ := ev.Args["dur_ns"].(float64)
			switch ev.Name {
			case obs.EvGCPause:
				gcFull = append(gcFull, time.Duration(d))
			case obs.EvGCMinorPause:
				gcMinor = append(gcMinor, time.Duration(d))
			}
		}
	}
	return spans, gcFull, gcMinor, nil
}

// checkSum is the traced-run accounting invariant: the named parts of an
// operation plus its remainder must add up to its wall time, and the
// remainder must not be negative (which would mean two parts overlap).
// Values are per-op milliseconds; eps is relative to the wall time.
func checkSum(what string, wall float64, parts map[string]float64, remainder string) error {
	const eps = 0.01
	total := 0.0
	for _, v := range parts {
		total += v
	}
	tol := eps*wall + 1e-6
	if d := total - wall; d > tol || d < -tol {
		return fmt.Errorf("%s: layer times sum to %.4f ms but the op wall is %.4f ms (epsilon %.0f%%)",
			what, total, wall, eps*100)
	}
	if r := parts[remainder]; r < -tol {
		return fmt.Errorf("%s: remainder %s is %.4f ms < 0: attributed layers exceed the op wall %.4f ms",
			what, remainder, r, wall)
	}
	return nil
}
