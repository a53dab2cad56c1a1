package main

import (
	"fmt"
	"io"
	"time"
)

// repeatSetup builds a workload's environment k times, dropping every one
// but the last, and returns the last with the median build time at the
// reference speed (each build's wall time scaled by the probe speed during
// it). Several set-ups per run make setup_s a median instead of one cold
// sample.
func repeatSetup[T any](k int, build func() (T, error), drop func(T) error) (T, time.Duration, error) {
	var env T
	var took []time.Duration
	for i := 0; i < k; i++ {
		if i > 0 {
			if err := drop(env); err != nil {
				return env, 0, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		probe := startProber(t0)
		var err error
		env, err = build()
		d := time.Since(t0)
		speed := speedOf(probe.finish(), 0, d)
		if err != nil {
			return env, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		took = append(took, time.Duration(float64(d)*speed))
	}
	return env, medianDur(took), nil
}

// timed is what the two loops of an HTTP workload measured.
type timed struct {
	open, closed phaseStats
	heapMB       float64
	cpuClosed    time.Duration // process CPU over the closed segments
	mem          memDelta      // allocation and GC pauses over both loops
}

// segment is how long one loop runs before the other takes over.
const segment = 2 * time.Second

// runTimed drives the open loop and the closed loop in alternating
// segments, open first, until each has had its share of the run. Both
// loops so sample the whole run, and a stretch of interference from
// outside the process, which on this box lasts seconds, falls on both and
// covers less of either.
func runTimed(conns []*httpConn, ph phases, rate float64, nClasses int, op opFunc) timed {
	var t timed
	segs := max(1, int(ph.open/segment))
	heap := startHeapSampler()
	mem0 := readMem()
	for s := 0; s < segs; s++ {
		t.open.merge(openLoop(conns, ph.open/time.Duration(segs), rate, nClasses, op))
		cpu0 := cpuTime()
		t.closed.merge(closedLoop(conns, ph.closed/time.Duration(segs), nClasses, op))
		t.cpuClosed += cpuTime() - cpu0
	}
	t.mem = memBetween(mem0, readMem())
	t.heapMB = heap.medianMB()
	return t
}

// endToEndOf fills the end-to-end metrics of an HTTP workload. units
// weighs each class for ops_per_s and cpu_us_per_op.
func (t timed) endToEndOf(res *result, setup time.Duration, units []int) {
	res.attempted += t.open.attempted + t.closed.attempted
	res.failed += t.open.failed + t.closed.failed
	res.metrics["setup_s"] = setup.Seconds()
	res.metrics["ops_per_s"] = t.closed.rate(units)
	res.metrics["p50_ms"] = t.open.latencyMs(0.50)
	res.metrics["p90_ms"] = t.open.latencyMs(0.90)
	res.metrics["cpu_us_per_op"] = t.closed.cpuPerUnit(units, t.cpuClosed) / 1e3
	res.metrics["heap_live_mb"] = t.heapMB
	for _, n := range t.open.done {
		res.samples["p50_ms"] += n
	}
	res.samples["p90_ms"] = res.samples["p50_ms"]
	res.samples["ops_per_s"] = t.closed.units(units)
	seriesOf(res, t.open, t.closed, units)
}

// processOf fills the process and generator metrics of a traced run.
func (t timed) processOf(res *result, units []int) {
	res.attempted += t.open.attempted + t.closed.attempted
	res.failed += t.open.failed + t.closed.failed
	if done := t.open.units(units) + t.closed.units(units); done > 0 {
		res.metrics["process.allocs_per_op"] = float64(t.mem.mallocs) / float64(done)
		res.metrics["process.bytes_per_op"] = float64(t.mem.bytes) / float64(done)
	}
	res.metrics["process.gc_pause_p99_us"] = float64(t.mem.pauseP99.Nanoseconds()) / 1e3
	if t.open.sends > 0 {
		res.metrics["loadgen.late_ratio"] = float64(t.open.late) / float64(t.open.sends)
	}
	res.metrics["loadgen.max_lag_ms"] = float64(t.open.maxLag.Nanoseconds()) / 1e6
	if n := t.open.attempted + t.closed.attempted; n > 0 {
		res.metrics["error_ratio"] = float64(t.open.failed+t.closed.failed) / float64(n)
	}
}

// classLatency reports one class's open-phase latency under name_p50_ms
// and, with at least 1000 samples, name_p99_ms.
func (t timed) classLatency(res *result, name string, class int, withP99 bool) {
	l := t.open.lat[class]
	res.metrics[name+"_p50_ms"] = quantileMs(l, 0.50)
	res.samples[name+"_p50_ms"] = len(l)
	if withP99 && len(l) >= 1000 {
		res.metrics[name+"_p99_ms"] = quantileMs(l, 0.99)
		res.samples[name+"_p99_ms"] = len(l)
	}
}

// describe prints the per-class figures of both loops: the numbers a
// client of one route sees, beside the workload-wide ones that are gated.
func (t timed) describe(w io.Writer, classes []string, rate float64) {
	fmt.Fprintf(w, "  open loop %.0f/s for %.1fs: sent %d, woke late %d, worst lag %.2f ms, failed %d\n",
		rate, t.open.elapsed.Seconds(), t.open.sends, t.open.late, float64(t.open.maxLag.Nanoseconds())/1e6, t.open.failed)
	for c, name := range classes {
		l := t.open.lat[c]
		fmt.Fprintf(w, "    %-8s n=%-7d p50 %8.3f ms  p99 %8.3f ms\n", name, len(l), quantileMs(l, 0.5), quantileMs(l, 0.99))
	}
	all := t.open.all()
	fmt.Fprintf(w, "    %-8s n=%-7d p50 %8.3f ms  p90 %8.3f ms  p99 %8.3f ms, as measured\n", "all", len(all),
		quantileMs(all, 0.5), quantileMs(all, 0.9), quantileMs(all, 0.99))
	fmt.Fprintf(w, "  closed loop %d clients for %.1fs: failed %d\n", clients, t.closed.elapsed.Seconds(), t.closed.failed)
	for c, name := range classes {
		fmt.Fprintf(w, "    %-8s %9.0f /s\n", name, float64(t.closed.done[c])/t.closed.elapsed.Seconds())
	}
	describeSpeed(w, append(t.open.speeds(), t.closed.speeds()...))
}

// describeSpeed prints how fast the box was during the run.
func describeSpeed(w io.Writer, speeds []float64) {
	if len(speeds) == 0 {
		return
	}
	lo, hi := speeds[0], speeds[0]
	for _, s := range speeds {
		lo, hi = min(lo, s), max(hi, s)
	}
	fmt.Fprintf(w, "  box speed over %d windows: median %.2f of the reference, %.2f to %.2f; windowed figures are scaled to the reference\n",
		len(speeds), medianF(append([]float64(nil), speeds...)), lo, hi)
}
