package main

import (
	"sort"
	"sync"
	"time"
)

// opFunc performs the calling client's next operation on c — one request,
// or the /allocate→/complete pair of a task — and reports the operation's
// class and whether every response was 2xx. The workload keeps each
// client's position in its pre-drawn inputs; the generator only decides
// when to call.
type opFunc func(client int, c *httpConn) (class uint8, ok bool)

// lateAfter is how long after its due time a send counts as late.
const lateAfter = time.Millisecond

// phaseStats is what a timed phase, or several merged, measured.
type phaseStats struct {
	elapsed   time.Duration
	attempted int        // operations sent, plus (open loop) those never sent
	failed    int        // non-2xx, transport errors and never-sent operations
	done      []int      // completed operations per class
	lat       [][]uint32 // per class, nanoseconds, sorted ascending
	sends     int        // open loop: operations sent
	late      int        // open loop: woke more than lateAfter past a slot
	maxLag    time.Duration
	windows   []window // the phase cut into statWindow pieces
}

// statWindow is the length of the pieces a phase is cut into. Throughput,
// CPU per operation and the latency quantiles are taken per piece, scaled
// by the piece's probe speed (probe.go), and the metric is the median
// piece: a GC cycle, a snapshot or a burst from a neighbour moves it only
// once it touches half the run.
const statWindow = 500 * time.Millisecond

// window is one piece of a phase.
type window struct {
	dur   time.Duration
	cpu   time.Duration // process CPU spent in the window
	speed float64       // the box's speed in the window relative to the reference (probe.go)
	done  []int         // operations completed in it, per class
	lat   []uint32      // their latencies, all classes, sorted ascending
}

// clientLog is one client's pre-sized record of a phase; a timed phase
// appends to it and allocates nothing.
type clientLog struct {
	lat       []uint32
	cls       []uint8
	at        []uint32 // completion time, microseconds into the phase
	attempted int
	failed    int
	sends     int
	late      int
	maxLag    time.Duration
}

func newClientLog(capacity int) *clientLog {
	return &clientLog{
		lat: make([]uint32, 0, capacity),
		cls: make([]uint8, 0, capacity),
		at:  make([]uint32, 0, capacity),
	}
}

// record logs one operation that took d and completed at the given offset
// into the phase.
func (l *clientLog) record(class uint8, ok bool, d, at time.Duration) {
	l.attempted++
	if !ok {
		l.failed++ // a refused request also has no latency sample
		return
	}
	if len(l.lat) < cap(l.lat) {
		l.lat = append(l.lat, uint32(min(d, time.Duration(^uint32(0)))))
		l.cls = append(l.cls, class)
		l.at = append(l.at, uint32(at.Microseconds()))
	}
}

// logCapacity bounds the samples one client keeps in a phase: far above
// any rate this box reaches, so a full log means a broken run, not a fast one.
func logCapacity(d time.Duration) int {
	return int(d.Seconds()*60000) + 1024
}

// runClients starts one goroutine per connection running body, reads the
// process's CPU clock at every window boundary while they run, and bins
// what the clients logged into the windows.
func runClients(conns []*httpConn, d time.Duration, nClasses int, body func(client int, c *httpConn, l *clientLog, start time.Time)) phaseStats {
	logs := make([]*clientLog, len(conns))
	for i := range logs {
		logs[i] = newClientLog(logCapacity(d))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func(client int, c *httpConn, l *clientLog) {
			defer wg.Done()
			body(client, c, l, start)
		}(i, c, logs[i])
	}
	probe := startProber(start)
	marks := []time.Duration{0}
	cpus := []time.Duration{cpuTime()}
	for next := statWindow; next <= d; next += statWindow {
		time.Sleep(time.Until(start.Add(next)))
		marks = append(marks, time.Since(start))
		cpus = append(cpus, cpuTime())
	}
	wg.Wait()
	readings := probe.finish()

	st := phaseStats{elapsed: time.Since(start), done: make([]int, nClasses), lat: make([][]uint32, nClasses)}
	for w := 1; w < len(marks); w++ {
		st.windows = append(st.windows, window{dur: marks[w] - marks[w-1], cpu: cpus[w] - cpus[w-1], done: make([]int, nClasses)})
	}
	for _, l := range logs {
		st.attempted += l.attempted
		st.failed += l.failed
		st.sends += l.sends
		st.late += l.late
		st.maxLag = max(st.maxLag, l.maxLag)
		w := 0
		for i, d := range l.lat {
			class := l.cls[i]
			st.lat[class] = append(st.lat[class], d)
			for w < len(st.windows) && time.Duration(l.at[i])*time.Microsecond >= marks[w+1] {
				w++
			}
			if w < len(st.windows) { // else: completed after the last boundary
				st.windows[w].done[class]++
				st.windows[w].lat = append(st.windows[w].lat, d)
			}
		}
	}
	for c := range st.lat {
		st.done[c] = len(st.lat[c])
		sortU32(st.lat[c])
	}
	for w := range st.windows {
		sortU32(st.windows[w].lat)
		st.windows[w].speed = speedOf(readings, marks[w], marks[w+1])
	}
	return st
}

func sortU32(xs []uint32) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// closedLoop runs every client back to back for d: a client sends its next
// operation only after the previous one completed, so a slower system is
// offered less load. It yields the *_per_s figures.
func closedLoop(conns []*httpConn, d time.Duration, nClasses int, op opFunc) phaseStats {
	return runClients(conns, d, nClasses, func(client int, c *httpConn, l *clientLog, start time.Time) {
		end := start.Add(d)
		for {
			t0 := time.Now()
			if !t0.Before(end) {
				return
			}
			class, ok := op(client, c)
			t1 := time.Now()
			l.record(class, ok, t1.Sub(t0), t1.Sub(start))
		}
	})
}

// openLoop sends on a fixed schedule of rate operations per second shared
// by the clients (client c owns slots c, c+clients, ...), whether or not
// the system keeps up. An operation whose slot comes while the client
// still waits for the previous answer is sent as soon as that arrives and
// timed from its due time, so a stall is charged to every operation
// queued behind it. A client that is idle when a slot comes sleeps until
// it; the timers of this box overshoot by about half a millisecond, which
// is the generator's error and not the system's, so such an operation is
// timed from the moment it is actually sent, and the overshoot is
// reported as lag (late when beyond lateAfter). A client still behind
// schedule a tenth of the phase after its end gives up, and the
// operations it never sent count as failed.
func openLoop(conns []*httpConn, d time.Duration, rate float64, nClasses int, op opFunc) phaseStats {
	slots := int(rate * d.Seconds())
	interval := float64(time.Second) / rate
	return runClients(conns, d, nClasses, func(client int, c *httpConn, l *clientLog, start time.Time) {
		giveUp := start.Add(d + d/10)
		for slot := client; slot < slots; slot += len(conns) {
			from := start.Add(time.Duration(float64(slot) * interval))
			now := time.Now()
			if wait := from.Sub(now); wait > 0 {
				time.Sleep(wait)
				now = time.Now()
				lag := now.Sub(from)
				if lag > lateAfter {
					l.late++
				}
				l.maxLag = max(l.maxLag, lag)
				from = now
			} else if now.After(giveUp) {
				never := (slots - slot + len(conns) - 1) / len(conns)
				l.attempted += never
				l.failed += never
				return
			}
			l.sends++
			class, ok := op(client, c)
			t1 := time.Now()
			l.record(class, ok, t1.Sub(from), t1.Sub(start))
		}
	})
}

// merge adds another phase of the same loop to st.
func (st *phaseStats) merge(o phaseStats) {
	st.elapsed += o.elapsed
	st.attempted += o.attempted
	st.failed += o.failed
	st.sends += o.sends
	st.late += o.late
	st.maxLag = max(st.maxLag, o.maxLag)
	st.windows = append(st.windows, o.windows...)
	if st.done == nil {
		st.done, st.lat = o.done, o.lat
		return
	}
	for c := range o.lat {
		st.done[c] += o.done[c]
		st.lat[c] = append(st.lat[c], o.lat[c]...)
		sortU32(st.lat[c])
	}
}

// all returns every class's samples merged and sorted.
func (st phaseStats) all() []uint32 {
	var out []uint32
	for _, l := range st.lat {
		out = append(out, l...)
	}
	sortU32(out)
	return out
}

// units sums completed operations weighted per class (a 256-event batch
// is 256 posts, a task is two operations).
func (st phaseStats) units(perClass []int) int { return weigh(st.done, perClass) }

func weigh(done, perClass []int) int {
	total := 0
	for c, n := range done {
		total += n * perClass[c]
	}
	return total
}

// rates is every window's throughput in weighted operations per second
// at the reference speed.
func (st phaseStats) rates(perClass []int) []float64 {
	rates := make([]float64, len(st.windows))
	for i, w := range st.windows {
		rates[i] = float64(weigh(w.done, perClass)) / w.dur.Seconds() / w.speed
	}
	return rates
}

// rate is the throughput in weighted operations per second at the
// reference speed: the median over the windows, or the whole-phase figure
// as measured when there are fewer than two.
func (st phaseStats) rate(perClass []int) float64 {
	if len(st.windows) < 2 {
		return float64(st.units(perClass)) / st.elapsed.Seconds()
	}
	return medianF(st.rates(perClass))
}

// cpuPerUnits is every window's process CPU nanoseconds per weighted
// operation at the reference speed.
func (st phaseStats) cpuPerUnits(perClass []int) []float64 {
	var per []float64
	for _, w := range st.windows {
		if n := weigh(w.done, perClass); n > 0 {
			per = append(per, float64(w.cpu)/float64(n)*w.speed)
		}
	}
	return per
}

// cpuPerUnit is the process CPU time per weighted operation in
// nanoseconds at the reference speed: the median over the windows, or
// fallback (measured around the whole phase) over all operations when
// there are fewer than two.
func (st phaseStats) cpuPerUnit(perClass []int, fallback time.Duration) float64 {
	per := st.cpuPerUnits(perClass)
	if len(per) < 2 {
		if n := st.units(perClass); n > 0 {
			return float64(fallback) / float64(n)
		}
		return 0
	}
	return medianF(per)
}

// minWindowSamples is how many operations a window needs for its own
// latency quantiles to count: its 90th percentile then has ten samples
// beyond it.
const minWindowSamples = 100

// windowQuantiles is latency quantile q, in milliseconds at the reference
// speed, of every window that holds enough samples.
func (st phaseStats) windowQuantiles(q float64) []float64 {
	var per []float64
	for _, w := range st.windows {
		if len(w.lat) >= minWindowSamples {
			per = append(per, quantileMs(w.lat, q)*w.speed)
		}
	}
	return per
}

// latencyMs is latency quantile q in milliseconds at the reference speed:
// the median over the windows' own quantiles, or the quantile of all
// samples as measured when fewer than two windows hold enough.
func (st phaseStats) latencyMs(q float64) float64 {
	per := st.windowQuantiles(q)
	if len(per) < 2 {
		return quantileMs(st.all(), q)
	}
	return medianF(per)
}

// speeds is every window's probe speed.
func (st phaseStats) speeds() []float64 {
	out := make([]float64, len(st.windows))
	for i, w := range st.windows {
		out[i] = w.speed
	}
	return out
}

// seriesOf records the per-window values behind the windowed end-to-end
// metrics — already scaled to the reference speed, with the speeds beside
// them — so that a results log shows what each figure was taken over.
func seriesOf(res *result, open, closed phaseStats, perClass []int) {
	res.series["ops_per_s"] = closed.rates(perClass)
	res.series["cpu_ns_per_op"] = closed.cpuPerUnits(perClass)
	res.series["closed_speed"] = closed.speeds()
	res.series["p50_ms"] = open.windowQuantiles(0.50)
	res.series["p90_ms"] = open.windowQuantiles(0.90)
	res.series["open_speed"] = open.speeds()
}

// quantileMs reads quantile q of sorted nanosecond samples in milliseconds
// (nearest rank); 0 when there are none.
func quantileMs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))]) / 1e6
}

// medianDur is the median of a few durations.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
