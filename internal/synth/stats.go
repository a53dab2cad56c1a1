package synth

import (
	"sort"

	"incentivetag/internal/sparse"
	"incentivetag/internal/stats"
	"incentivetag/internal/tags"
)

// DatasetStats is the census of §I and §V-A: how many posts exist, how
// they split across the January cut, where stable points lie, and how much
// of the organic stream is wasted on already-stable resources.
type DatasetStats struct {
	NResources   int
	TotalPosts   int
	JanuaryPosts int
	// JanuaryShare = JanuaryPosts / TotalPosts.
	JanuaryShare float64
	// MeanPosts is the mean full-sequence length (paper: 112).
	MeanPosts float64
	// MeanInitial is the mean January post count (paper: 29.7).
	MeanInitial float64
	// StablePoints summarizes the per-resource stable points k*_i
	// (paper: most in 50–200, average 112).
	StablePoints stats.Summary
	// UnderTagged counts resources with c_i ≤ UnderTaggedThreshold
	// (paper: ~25%).
	UnderTagged int
	// OverTagged counts resources with c_i ≥ k*_i — already past their
	// stable point before any strategy runs (paper: ~7%).
	OverTagged int
	// WastedShare is the fraction of the full year's posts that land on a
	// resource after its stable point (paper: ~48%).
	WastedShare float64
	// PostsHistogram is the Figure 1(b) log-binned posts-per-resource
	// distribution (base 10).
	PostsHistogram []stats.LogBin
}

// Stats computes the dataset census.
func (d *Dataset) Stats() DatasetStats {
	s := DatasetStats{NResources: len(d.Resources)}
	lengths := make([]int, 0, len(d.Resources))
	stablePts := make([]float64, 0, len(d.Resources))
	wasted := 0
	for _, r := range d.Resources {
		L := len(r.Seq)
		s.TotalPosts += L
		s.JanuaryPosts += r.Initial
		lengths = append(lengths, L)
		stablePts = append(stablePts, float64(r.StableK))
		if r.Initial <= d.Cfg.UnderTaggedThreshold {
			s.UnderTagged++
		}
		if r.Initial >= r.StableK {
			s.OverTagged++
		}
		if L > r.StableK {
			wasted += L - r.StableK
		}
	}
	if s.TotalPosts > 0 {
		s.JanuaryShare = float64(s.JanuaryPosts) / float64(s.TotalPosts)
		s.WastedShare = float64(wasted) / float64(s.TotalPosts)
	}
	if len(d.Resources) > 0 {
		s.MeanPosts = float64(s.TotalPosts) / float64(len(d.Resources))
		s.MeanInitial = float64(s.JanuaryPosts) / float64(len(d.Resources))
	}
	s.StablePoints = stats.Summarize(stablePts)
	s.PostsHistogram = stats.LogHistogram(lengths, 10)
	return s
}

// TagTrajectory is one tag's relative-frequency series f(t, k) for
// k = 1..len(Series); it backs Figure 1(a).
type TagTrajectory struct {
	Tag    tags.Tag
	Name   string
	Series []float64
}

// TopTagTrajectories replays the first upTo posts of resource i and
// returns the relative-frequency trajectories of the topN tags that are
// most frequent at the end of the replay — the exact construction of
// Figure 1(a) (five selected tags of the Google Earth URL over 500 posts).
func (d *Dataset) TopTagTrajectories(i, topN, upTo int) []TagTrajectory {
	r := d.Resources[i]
	if upTo <= 0 || upTo > len(r.Seq) {
		upTo = len(r.Seq)
	}
	// Find the topN tags at post upTo.
	final := sparse.FromSeq(r.Seq, upTo)
	support := final.Support()
	sort.Slice(support, func(a, b int) bool {
		ca, cb := final.Get(support[a]), final.Get(support[b])
		if ca != cb {
			return ca > cb
		}
		return support[a] < support[b]
	})
	if topN > len(support) {
		topN = len(support)
	}
	top := support[:topN]

	out := make([]TagTrajectory, len(top))
	for j, t := range top {
		out[j] = TagTrajectory{Tag: t, Name: d.Vocab.Name(t), Series: make([]float64, upTo)}
	}
	counts := sparse.NewCounts()
	for k := 1; k <= upTo; k++ {
		counts.Add(r.Seq[k-1])
		for j, t := range top {
			out[j].Series[k-1] = counts.RelFreq(t)
		}
	}
	return out
}
