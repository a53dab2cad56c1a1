package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// around the layer's public entry point in the ladder, and around the
// HTTP handlers of the nodes behind a gateway. Start and End are
// nanoseconds since the recorder was made; Parent is the span that caused
// this one (0 for a ladder call made by the benchmark itself).
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	workload string
	t0       time.Time
	nextID   atomic.Int64
	// current is the ladder call in flight. The ladder is one goroutine
	// issuing one call at a time, so the node taps can name it as the
	// parent of the legs it causes without any id crossing the wire.
	current atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// call times fn as one span of layer/op and returns its duration.
func (r *recorder) call(layer, op string, fn func()) time.Duration {
	id := r.nextID.Add(1)
	prev := r.current.Swap(id)
	start := time.Now()
	fn()
	end := time.Now()
	r.current.Store(prev)
	r.add(span{Layer: layer, Op: op, ID: id, Parent: prev, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return end.Sub(start)
}

func (r *recorder) add(s span) {
	s.Workload = r.workload
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as trace-<workload>.jsonl under dir.
func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes computes, for every span of the given layer and op, its
// duration minus the part of that interval covered by the spans of
// childLayer it caused (they may overlap: the legs of a scatter run in
// parallel), and returns the values in nanoseconds.
func (r *recorder) selfTimes(layer, op, childLayer string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 && s.Layer == childLayer {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer && s.Op == op {
			out = append(out, float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)))
		}
	}
	return out
}

// durations returns the length of every span of the given layer and op.
func (r *recorder) durations(layer, op string) []float64 { return r.selfTimes(layer, op, "") }

// childMax returns, for every span of the given layer and op, the
// duration of the longest span of childOp it caused: the leg a scatter
// waits for.
func (r *recorder) childMax(layer, op, childOp string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	longest := map[int64]int64{}
	for _, s := range r.spans {
		if s.Op == childOp && s.End-s.Start > longest[s.Parent] {
			longest[s.Parent] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer && s.Op == op {
			out = append(out, float64(longest[s.ID]))
		}
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// tap wraps one HTTP handler (a node's srv.Handler() or the gateway's) so
// that requests, body bytes both ways and handler time per path are
// measured at the boundary, without touching the package behind it. With
// on false it is one atomic load and a call.
type tap struct {
	next  http.Handler
	layer string
	on    atomic.Bool
	rec   *recorder // nil: count only

	mu    sync.Mutex
	paths map[string]*pathStats
}

type pathStats struct {
	requests int64
	bytes    int64 // request + response body bytes
	nanos    []int64
}

func newTap(next http.Handler, layer string, rec *recorder) *tap {
	return &tap{next: next, layer: layer, rec: rec, paths: map[string]*pathStats{}}
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

// Unwrap lets http.ResponseController reach the real writer.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	var parent, id int64
	if t.rec != nil {
		parent = t.rec.current.Load()
		id = t.rec.nextID.Add(1)
	}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	end := time.Now()
	if t.rec != nil && parent != 0 {
		t.rec.add(span{Layer: t.layer, Op: r.URL.Path, ID: id, Parent: parent,
			Start: int64(start.Sub(t.rec.t0)), End: int64(end.Sub(t.rec.t0))})
	}
	t.mu.Lock()
	ps := t.paths[r.URL.Path]
	if ps == nil {
		ps = &pathStats{}
		t.paths[r.URL.Path] = ps
	}
	ps.requests++
	ps.bytes += body.n + cw.n
	ps.nanos = append(ps.nanos, int64(end.Sub(start)))
	t.mu.Unlock()
}

// reset forgets what the tap has counted.
func (t *tap) reset() {
	t.mu.Lock()
	t.paths = map[string]*pathStats{}
	t.mu.Unlock()
}

// path returns a copy of what was counted for one path.
func (t *tap) path(p string) pathStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ps := t.paths[p]; ps != nil {
		return pathStats{requests: ps.requests, bytes: ps.bytes, nanos: append([]int64(nil), ps.nanos...)}
	}
	return pathStats{}
}

// medianF is the median of xs (0 when empty); xs is reordered.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

func medianI64(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return medianF(fs)
}

// rung is one step of a ladder: a layer's public entry point fed the
// ladder's fixed inputs, one goroutine, a span per call.
type rung struct {
	layer, op string
	perOp     float64 // median nanoseconds per call
	self      float64 // perOp minus the rungs beneath it
}

// measure runs fn(i) for i in [0,n) as spans of layer/op and returns the
// rung with its median time per call.
func (r *recorder) measure(layer, op string, n int, fn func(i int)) rung {
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		ds[i] = float64(r.call(layer, op, func() { fn(i) }))
	}
	return rung{layer: layer, op: op, perOp: medianF(ds)}
}

// closure is how well a ladder's self times account for its top rung:
// the sum of the self times that are positive, over the top rung's time.
// The self times telescope, so the sum misses 1 exactly by the rungs that
// came out negative — sibling rungs measured apart (engine, ir and
// tagstore under service) that together cost more than their parent.
func closure(rungs []rung, top float64) float64 {
	if top == 0 {
		return 0
	}
	var sum float64
	for _, r := range rungs {
		if r.self > 0 {
			sum += r.self
		}
	}
	return sum / top
}

func printLadder(w io.Writer, title string, rungs []rung, per float64, unit string) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, r := range rungs {
		fmt.Fprintf(w, "    %-10s %-22s %12.1f %s   self %12.1f %s\n", r.layer, r.op, r.perOp/per, unit, r.self/per, unit)
	}
}
