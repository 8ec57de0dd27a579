package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// slices is how many equal parts of its timed window a run reports the
// median of, so a transient stall of the shared host moves the result
// only when it covers most of a run.
const slices = 5

// opSample is one completed op: when it ended, in seconds from the start
// of the timed window (for sequential workloads, of timed time only),
// and its latency in ms.
type opSample struct{ at, ms float64 }

// sliced splits samples into slices equal spans of the window and
// returns the median over slices of the completion rate, p50 and p99.
func sliced(samples []opSample, span float64) (rate, p50, p99 float64) {
	parts := make([][]float64, slices)
	for _, s := range samples {
		j := int(s.at / span * slices)
		j = max(0, min(j, slices-1))
		parts[j] = append(parts[j], s.ms)
	}
	rates := make([]float64, slices)
	p50s := make([]float64, slices)
	p99s := make([]float64, slices)
	for j, p := range parts {
		rates[j] = float64(len(p)) / (span / slices)
		p50s[j] = median(p)
		p99s[j] = quantile(p, 0.99)
	}
	return median(rates), median(p50s), median(p99s)
}

// sequential turns back-to-back op latencies (ms) into samples on a
// clock that only runs during ops.
func sequential(walls []float64) ([]opSample, float64) {
	out := make([]opSample, len(walls))
	t := 0.0
	for i, w := range walls {
		t += w / 1e3
		out[i] = opSample{t, w}
	}
	return out, t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
