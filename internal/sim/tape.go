package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"incentivetag/internal/quality"
	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/stats"
	"incentivetag/internal/tags"
)

// tape is the replay's one table for a (Data, ω). A paid task returns
// the resource's next recorded post, so resource i's quality and MA
// score after k posts depend on k alone. Row i holds q_i(k) and m_i(k)
// for every k from Initial[i] to len(Seqs[i]), entry x being k =
// Initial[i] + x. The quality rows are the DP's curves (Data.Curves).
type tape struct {
	omega int
	// The inputs the tape was built over, to tell a changed Data.
	seqs    []tags.Seq
	initial []int
	refs    []*quality.Reference
	// off[i] is where row i starts in q and ma; it ends at off[i+1].
	off   []int
	q, ma []float64 // ma is 0 while k < ω
	// qsum and qcomp are the compensated sum of the initial qualities
	// in ascending resource order, as engine.New seeds a single shard.
	qsum, qcomp float64
}

// buildTape tabulates every resource in one tracker pass each, fanned
// out over GOMAXPROCS workers. Rows are disjoint, so the result does
// not depend on the worker count.
func buildTape(d *Data, omega int) (*tape, error) {
	n := d.N()
	if omega < 2 {
		return nil, fmt.Errorf("sim: omega must be ≥ 2, got %d", omega)
	}
	if len(d.Initial) != n || len(d.Refs) != n {
		return nil, fmt.Errorf("sim: inconsistent data vectors")
	}
	tp := &tape{omega: omega, seqs: slices.Clone(d.Seqs), initial: slices.Clone(d.Initial),
		refs: slices.Clone(d.Refs), off: make([]int, n+1)}
	for i, c := range tp.initial {
		if c < 0 || c > len(tp.seqs[i]) {
			return nil, fmt.Errorf("sim: resource %d initial %d outside [0,%d]", i, c, len(tp.seqs[i]))
		}
		if tp.refs[i] == nil {
			return nil, fmt.Errorf("sim: resource %d missing stable rfd reference", i)
		}
		tp.off[i+1] = tp.off[i] + len(tp.seqs[i]) - c + 1
	}
	tp.q, tp.ma = make([]float64, tp.off[n]), make([]float64, tp.off[n])
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				tp.fill(i)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		tp.qsum, tp.qcomp = stats.NeumaierAdd(tp.qsum, tp.qcomp, tp.q[tp.off[i]])
	}
	return tp, nil
}

// fill writes resource i's rows. Quality comes from the exact integer
// dot against the reference, maintained per post as the engine does,
// through the engine's expression (sparse.CosineOf); MA from a tracker
// that has seen every post from k = 1, as the engine's has.
func (tp *tape) fill(i int) {
	seq, c := tp.seqs[i], tp.initial[i]
	ref := tp.refs[i].Counts()
	q, ma := tp.q[tp.off[i]:tp.off[i+1]], tp.ma[tp.off[i]:tp.off[i+1]]
	tr := stability.NewTracker(tp.omega)
	var dot int64
	for k := 0; ; k++ {
		if k >= c {
			counts := tr.Counts()
			q[k-c] = sparse.CosineOf(float64(dot), counts.Norm2(), counts.Posts(), ref.Norm2(), ref.Posts())
			ma[k-c], _ = tr.MA()
		}
		if k == len(seq) {
			return
		}
		for _, t := range seq[k] {
			dot += ref.Get(t)
		}
		tr.Observe(seq[k])
	}
}

// tapeFor returns the Data's tape for omega, building it on the first
// call for omega and again whenever the Data changed underneath it: per
// resource another recorded sequence (by identity: backing array and
// length), initial count or reference. One tape is kept at a time.
func (d *Data) tapeFor(omega int) (*tape, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tp := d.tape
	fresh := tp != nil && tp.omega == omega && len(d.Seqs) == len(tp.seqs) &&
		slices.Equal(d.Initial, tp.initial) && slices.Equal(d.Refs, tp.refs)
	for i := 0; fresh && i < len(d.Seqs); i++ {
		s, t := d.Seqs[i], tp.seqs[i]
		fresh = len(s) == len(t) && (len(s) == 0 || &s[0] == &t[0])
	}
	if fresh {
		return tp, nil
	}
	tp, err := buildTape(d, omega)
	if err != nil {
		return nil, err
	}
	d.tape = tp
	return tp, nil
}

// Curves returns every resource's quality curve up to budgetBound extra
// posts (unbounded when negative): the quality rows of the (Data, ω)
// tape, built if none is cached. They share the tape's storage, so
// callers must not modify them.
func (d *Data) Curves(omega, budgetBound int) ([]quality.Curve, error) {
	tp, err := d.tapeFor(omega)
	if err != nil {
		return nil, err
	}
	curves := make([]quality.Curve, len(tp.initial))
	for i := range curves {
		end := tp.off[i+1]
		if budgetBound >= 0 {
			end = min(end, tp.off[i]+budgetBound+1)
		}
		curves[i] = tp.q[tp.off[i]:end:end]
	}
	return curves, nil
}
