// Package synth generates synthetic del.icio.us-style tagging workloads.
//
// The paper's evaluation (§V-A) uses the 2007 del.icio.us crawl of Wetzker
// et al. — proprietary data we cannot ship. This package substitutes a
// seeded generative model that preserves every property the experiments
// measure:
//
//   - each resource has a latent "true" tag distribution drawn from a
//     topic model over a shared category taxonomy, so its rfd converges
//     (Golder & Huberman's stabilization, Figure 1(a)) and tag-based
//     cosine similarity correlates with taxonomy distance (Figure 7);
//   - per-post noise includes fresh never-repeating typo tags, matching
//     "since typos rarely repeat, their presence ... would be
//     statistically insignificant" (§I);
//   - resource popularity follows a truncated Pareto law, giving the
//     heavy-tailed posts-per-resource histogram of Figure 1(b), the ~48%
//     post wastage, and the under-/over-tagging census of §I;
//   - every generated resource reaches its practically-stable rfd within
//     its recorded sequence, mirroring the paper's stable-subset
//     selection with (ω_s, τ_s) = (20, 0.9999);
//   - a "January" prefix of each sequence plays the role of the initial
//     posts c_i; the remainder is consumed in order by post tasks,
//     exactly the replay protocol of §V-A.
package synth

import "incentivetag/internal/stability"

// DriftSpec declares a named case-study resource whose early posts are
// drawn from a different category than its eventual true topic. This is
// the generative analogue of www.myphysicslab.com in Table VI: a physics
// site whose first taggers described only its Java implementation.
type DriftSpec struct {
	// Name is the resource's display name (a fake hostname).
	Name string
	// Leaf is the taxonomy leaf segment of the true topic (e.g. "Physics").
	Leaf string
	// EarlyLeaf, when non-empty, is the leaf whose distribution dominates
	// the first EarlyPosts posts (e.g. "Java").
	EarlyLeaf string
	// EarlyPosts is how many leading posts are drawn from EarlyLeaf.
	EarlyPosts int
	// Popularity overrides the Pareto popularity factor when > 0.
	Popularity float64
	// InitialPosts overrides the January post count c_i when > 0. Case
	// studies set this just past EarlyPosts so the initial rfd is
	// dominated by the early topic.
	InitialPosts int
}

// Config controls dataset generation. Zero values are replaced by
// DefaultConfig's choices in Generate.
type Config struct {
	// NResources is the number of resources n (the paper uses 5,000).
	NResources int
	// Seed makes generation fully deterministic.
	Seed int64

	// MinLeaves is the minimum number of taxonomy leaf categories.
	MinLeaves int
	// TagsPerLeaf is the size of each leaf's topical tag pool.
	TagsPerLeaf int
	// SharedTagsPerTop is the size of each top-category shared tag pool.
	SharedTagsPerTop int
	// GlobalTags is the size of the corpus-wide common tag pool
	// ("web", "cool", "useful", ...).
	GlobalTags int

	// MinTopicTags/MaxTopicTags bound how many leaf tags a resource's
	// true distribution uses. Breadth drives the stable point: focused
	// resources stabilize after few posts, multi-faceted ones need many
	// (§IV-C's "complex webpage" discussion).
	MinTopicTags, MaxTopicTags int
	// ParentMix and GlobalMix are the probability masses of the shared
	// top-category and global tag pools in each resource's distribution.
	ParentMix, GlobalMix float64
	// TopicZipf is the Zipf exponent of tag weights inside a pool.
	TopicZipf float64

	// PostLenWeights[i] is the relative frequency of posts with i+1 tags.
	PostLenWeights []float64
	// NoiseRate is the probability that each sampled tag occurrence is
	// replaced by a fresh, never-repeating typo tag.
	NoiseRate float64
	// SpamRate is the probability that an entire post is a spam post:
	// promotional tags drawn from a shared corpus-wide spam pool,
	// unrelated to the resource's topic (the tag-spam phenomenon of
	// Wetzker et al. the paper cites). Default 0 — spam is an opt-in
	// robustness scenario, not part of the calibrated baseline.
	SpamRate float64
	// SpamTags is the size of the shared spam tag pool (default 12 when
	// SpamRate > 0).
	SpamTags int

	// ParetoAlpha and ParetoCap shape the popularity factor f ≥ 1:
	// f = min(cap, 1.05·u^(−1/α)). A resource's sequence length is its
	// stable point times f, so mean waste ≈ 1 − 1/E[f].
	ParetoAlpha, ParetoCap float64
	// MaxPosts caps any single resource's sequence length.
	MaxPosts int

	// JanuaryBase is the target mean fraction of a resource's posts that
	// arrive before the strategies start (the paper's January 2007 share,
	// ≈ 26%). The realized share is popularity-correlated and jittered,
	// reproducing "over 1000 of them have 10 posts or less".
	JanuaryBase float64

	// PrepOmega and PrepTau are the (ω_s, τ_s) stability parameters used
	// during dataset preparation to find each resource's stable point.
	PrepOmega int
	PrepTau   float64

	// UnderTaggedThreshold is the post count at or below which a resource
	// counts as under-tagged (the paper uses 10).
	UnderTaggedThreshold int

	// Drift lists the named case-study resources. They are appended after
	// the NResources ordinary resources.
	Drift []DriftSpec
}

// defaultDrift returns the case-study resources mirroring Tables VI–VII:
// a physics site initially tagged as Java, a video-editing site initially
// tagged as video sharing, a photo-editing site initially tagged as
// photography, an architecture-news site initially tagged as media news,
// and a hugely popular sports site with no drift.
func defaultDrift() []DriftSpec {
	// The drift subjects start under-tagged (c_i ≈ 9) with their early
	// posts drawn from the wrong facet, mirroring the paper's subject
	// whose initial posts "focus on the java implementation": FP, which
	// serves the fewest-posts resources first, then repairs their profile
	// with on-topic posts, while FC mostly leaves them alone.
	return []DriftSpec{
		{Name: "www.myphysicslab.example", Leaf: "Physics", EarlyLeaf: "Java", EarlyPosts: 6, Popularity: 2.0, InitialPosts: 7},
		{Name: "dvdvideosoft.example", Leaf: "VideoEditing", EarlyLeaf: "VideoSharing", EarlyPosts: 6, Popularity: 2.0, InitialPosts: 7},
		{Name: "slashup.example", Leaf: "PhotoEditing", EarlyLeaf: "Photography", EarlyPosts: 6, Popularity: 1.8, InitialPosts: 7},
		{Name: "bdonline.example", Leaf: "Architecture", EarlyLeaf: "Media", EarlyPosts: 6, Popularity: 1.8, InitialPosts: 7},
		{Name: "espn.example", Leaf: "Football", Popularity: 8.0},
	}
}

// DefaultConfig returns a calibrated configuration for n resources. The
// calibration targets the paper's dataset statistics (§I, §V-A): stable
// points mostly within 50–200 posts, roughly a quarter of resources
// under-tagged at the January cut, a small popular minority over-tagged,
// and about half of all free-choice posts landing past stable points.
func DefaultConfig(n int, seed int64) Config {
	return Config{
		NResources: n,
		Seed:       seed,

		MinLeaves:        48,
		TagsPerLeaf:      60,
		SharedTagsPerTop: 16,
		GlobalTags:       24,

		MinTopicTags: 2,
		MaxTopicTags: 32,
		ParentMix:    0.08,
		GlobalMix:    0.12,
		TopicZipf:    1.05,

		PostLenWeights: []float64{0.15, 0.25, 0.30, 0.20, 0.10},
		NoiseRate:      0.04,

		ParetoAlpha: 1.7,
		ParetoCap:   80,
		MaxPosts:    9000,

		JanuaryBase: 0.26,

		PrepOmega: stability.DefaultUnderTaggedThreshold * 2, // ω_s = 20
		PrepTau:   0.9999,

		UnderTaggedThreshold: stability.DefaultUnderTaggedThreshold,

		Drift: defaultDrift(),
	}
}

// normalize fills unset fields with defaults and sanity-checks ranges.
func (c Config) normalize() Config {
	d := DefaultConfig(c.NResources, c.Seed)
	if c.NResources <= 0 {
		c.NResources = 100
	}
	if c.MinLeaves <= 0 {
		c.MinLeaves = d.MinLeaves
	}
	if c.TagsPerLeaf <= 0 {
		c.TagsPerLeaf = d.TagsPerLeaf
	}
	if c.SharedTagsPerTop <= 0 {
		c.SharedTagsPerTop = d.SharedTagsPerTop
	}
	if c.GlobalTags <= 0 {
		c.GlobalTags = d.GlobalTags
	}
	if c.MinTopicTags <= 0 {
		c.MinTopicTags = d.MinTopicTags
	}
	if c.MaxTopicTags < c.MinTopicTags {
		c.MaxTopicTags = d.MaxTopicTags
	}
	if c.MaxTopicTags > c.TagsPerLeaf {
		c.MaxTopicTags = c.TagsPerLeaf
	}
	if c.ParentMix <= 0 {
		c.ParentMix = d.ParentMix
	}
	if c.GlobalMix <= 0 {
		c.GlobalMix = d.GlobalMix
	}
	if c.TopicZipf <= 0 {
		c.TopicZipf = d.TopicZipf
	}
	if len(c.PostLenWeights) == 0 {
		c.PostLenWeights = d.PostLenWeights
	}
	if c.NoiseRate < 0 {
		c.NoiseRate = 0
	}
	if c.SpamRate < 0 {
		c.SpamRate = 0
	}
	if c.SpamRate > 0 && c.SpamTags <= 0 {
		c.SpamTags = 12
	}
	if c.ParetoAlpha <= 1 {
		c.ParetoAlpha = d.ParetoAlpha
	}
	if c.ParetoCap <= 1 {
		c.ParetoCap = d.ParetoCap
	}
	if c.MaxPosts <= 0 {
		c.MaxPosts = d.MaxPosts
	}
	if c.JanuaryBase <= 0 {
		c.JanuaryBase = d.JanuaryBase
	}
	if c.PrepOmega < 2 {
		c.PrepOmega = d.PrepOmega
	}
	if c.PrepTau <= 0 || c.PrepTau >= 1 {
		c.PrepTau = d.PrepTau
	}
	if c.UnderTaggedThreshold <= 0 {
		c.UnderTaggedThreshold = d.UnderTaggedThreshold
	}
	return c
}
