// Package stats provides the statistical primitives the paper's evaluation
// relies on and Go's standard library lacks: Kendall's τ rank correlation
// (used as the ranking-accuracy measure of Figure 7, following Markines et
// al.), the Pearson correlation of Equation 15, sample summaries, the
// log-binned histogram behind Figure 1(b), and a compensated running sum.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stdDev returns the sample standard deviation (n−1 denominator), matching
// the s_x of Equation 15. It returns 0 for fewer than two samples.
func stdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// NeumaierAdd adds x to the compensated sum (sum, comp) and returns the
// new pair; the total is sum + comp. It is Neumaier's variant of Kahan
// summation: comp absorbs the rounding error of each addition, whichever
// operand was smaller. The engine's quality aggregates and the replay's
// run both sum through it, so one order of additions gives one total.
func NeumaierAdd(sum, comp, x float64) (float64, float64) {
	t := sum + x
	if math.Abs(sum) >= math.Abs(x) {
		comp += (sum - t) + x
	} else {
		comp += (x - t) + sum
	}
	return t, comp
}

// Pearson computes Equation 15 of the paper:
//
//	corr(x, y) = Σ (x_i − x̄)(y_i − ȳ) / ((n−1) s_x s_y)
//
// It returns an error on length mismatch or when either side has zero
// variance (the correlation is undefined).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Pearson length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return 0, fmt.Errorf("stats: Pearson needs at least 2 samples, got %d", n)
	}
	mx, my := mean(xs), mean(ys)
	sx, sy := stdDev(xs), stdDev(ys)
	if sx == 0 || sy == 0 {
		return 0, fmt.Errorf("stats: Pearson undefined for zero-variance input")
	}
	var cov float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
	}
	return cov / (float64(n-1) * sx * sy), nil
}

// KendallTau computes Kendall's τ-b rank correlation between xs and ys in
// O(n log n) using Knight's algorithm (sort by x, then count discordant
// pairs as merge-sort exchanges in y, with tie corrections). τ-b handles
// ties on either side, which matter here: taxonomy ground-truth
// similarities take few distinct values, so ties are pervasive.
//
// The result ranges over [−1, 1]: −1 for exactly opposite rankings, 1 for
// identical rankings (§V-C.2).
func KendallTau(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: KendallTau length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return 0, fmt.Errorf("stats: KendallTau needs at least 2 samples, got %d", n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if xs[ia] != xs[ib] {
			return xs[ia] < xs[ib]
		}
		return ys[ia] < ys[ib]
	})

	// Tie counts: n1 over x groups, n3 over joint (x,y) groups.
	var n1, n3 int64
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		g := int64(j - i)
		n1 += g * (g - 1) / 2
		// Joint ties within the x group (idx sorted by y within group).
		for a := i; a < j; {
			b := a
			for b < j && ys[idx[b]] == ys[idx[a]] {
				b++
			}
			gg := int64(b - a)
			n3 += gg * (gg - 1) / 2
			a = b
		}
		i = j
	}

	// Count exchanges while merge-sorting the y values in x-order.
	yv := make([]float64, n)
	for i, id := range idx {
		yv[i] = ys[id]
	}
	buf := make([]float64, n)
	swaps := mergeCountSwaps(yv, buf)

	// Tie count n2 over y groups (yv is now fully sorted by y).
	var n2 int64
	for i := 0; i < n; {
		j := i
		for j < n && yv[j] == yv[i] {
			j++
		}
		g := int64(j - i)
		n2 += g * (g - 1) / 2
		i = j
	}

	n0 := int64(n) * int64(n-1) / 2
	num := float64(n0-n1-n2+n3) - 2*float64(swaps)
	den := math.Sqrt(float64(n0-n1)) * math.Sqrt(float64(n0-n2))
	if den == 0 {
		return 0, fmt.Errorf("stats: KendallTau undefined (all values tied on one side)")
	}
	t := num / den
	if t > 1 {
		t = 1
	}
	if t < -1 {
		t = -1
	}
	return t, nil
}

// mergeCountSwaps sorts a in place (stable merge sort) and returns the
// number of exchanges: pairs (i < j) with a[i] > a[j]. Equal elements are
// never counted (they are ties, handled separately).
func mergeCountSwaps(a, buf []float64) int64 {
	n := len(a)
	if n < 2 {
		return 0
	}
	mid := n / 2
	left, right := a[:mid], a[mid:]
	swaps := mergeCountSwaps(left, buf[:mid]) + mergeCountSwaps(right, buf[mid:])
	// Merge with inversion counting.
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if left[i] <= right[j] {
			buf[k] = left[i]
			i++
		} else {
			buf[k] = right[j]
			j++
			swaps += int64(len(left) - i)
		}
		k++
	}
	for i < len(left) {
		buf[k] = left[i]
		i++
		k++
	}
	for j < len(right) {
		buf[k] = right[j]
		j++
		k++
	}
	copy(a, buf[:n])
	return swaps
}

// kendallTauNaive is the O(n²) reference implementation of τ-b, used by
// tests to validate KendallTau on small inputs.
func kendallTauNaive(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return 0, fmt.Errorf("stats: need at least 2 samples")
	}
	var conc, disc, tieX, tieY int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				tieX++
				tieY++
			case dx == 0:
				tieX++
			case dy == 0:
				tieY++
			case dx*dy > 0:
				conc++
			default:
				disc++
			}
		}
	}
	n0 := int64(n) * int64(n-1) / 2
	den := math.Sqrt(float64(n0-tieX)) * math.Sqrt(float64(n0-tieY))
	if den == 0 {
		return 0, fmt.Errorf("stats: tau undefined (all tied)")
	}
	return float64(conc-disc) / den, nil
}

// Summary holds order statistics of a sample.
type Summary struct {
	N                int
	Min, Max         float64
	Mean, Std        float64
	P25, Median, P75 float64
}

// Summarize computes a five-number-style summary. It copies and sorts the
// input.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	s.Min, s.Max = cp[0], cp[len(cp)-1]
	s.Mean = mean(cp)
	s.Std = stdDev(cp)
	s.P25 = quantile(cp, 0.25)
	s.Median = quantile(cp, 0.5)
	s.P75 = quantile(cp, 0.75)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample using linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// LogBin is one bucket of a logarithmic histogram: counts of values v with
// Lo ≤ v < Hi.
type LogBin struct {
	Lo, Hi int
	Count  int
}

// LogHistogram buckets positive integer values into power-of-base bins
// [1, b), [b, b²), ... — the standard rendering of heavy-tailed
// distributions like Figure 1(b) (posts per resource, log-log). Values
// < 1 are ignored. base must be ≥ 2.
func LogHistogram(values []int, base int) []LogBin {
	if base < 2 {
		panic(fmt.Sprintf("stats: LogHistogram base must be ≥ 2, got %d", base))
	}
	maxV := 0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 1 {
		return nil
	}
	var bins []LogBin
	for lo := 1; lo <= maxV; lo *= base {
		bins = append(bins, LogBin{Lo: lo, Hi: lo * base})
	}
	for _, v := range values {
		if v < 1 {
			continue
		}
		// Bin index = floor(log_base(v)).
		idx := 0
		for x := v; x >= base; x /= base {
			idx++
		}
		bins[idx].Count++
	}
	return bins
}
