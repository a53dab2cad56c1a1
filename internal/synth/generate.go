package synth

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"incentivetag/internal/sparse"
	"incentivetag/internal/stability"
	"incentivetag/internal/tags"
	"incentivetag/internal/taxonomy"
)

// Resource is one generated resource with its full recorded post sequence
// and the dataset-preparation metadata the experiments need.
type Resource struct {
	// ID is the index into Dataset.Resources.
	ID int
	// Name is a fake hostname, e.g. "r0042.physics.example".
	Name string
	// Leaf is the resource's true taxonomy category.
	Leaf taxonomy.NodeID
	// Seq is the full recorded post sequence ("the whole year 2007").
	Seq tags.Seq
	// Initial is c_i: the number of leading posts that arrived before the
	// incentive strategies start ("January 2007").
	Initial int
	// StableK is the resource's stable point: the smallest k satisfying
	// Equation 6 under the preparation parameters (ω_s, τ_s). Generation
	// guarantees StableK ≤ len(Seq) (the stable-subset property of §V-A).
	StableK int
	// StableRFD is the practically-stable rfd φ̂_i = F_i(StableK).
	StableRFD *sparse.Counts
	// Drift is non-nil for named case-study resources.
	Drift *DriftSpec
}

// Dataset is a complete synthetic corpus plus the taxonomy ground truth.
type Dataset struct {
	Cfg       Config
	Vocab     *tags.Vocab
	Tax       *taxonomy.Tree
	Resources []Resource
	byName    map[string]int
}

// N returns the number of resources (ordinary + case-study).
func (d *Dataset) N() int { return len(d.Resources) }

// ByName returns the resource index with the given name.
func (d *Dataset) ByName(name string) (int, bool) {
	i, ok := d.byName[name]
	return i, ok
}

// Generate builds a dataset from cfg. Generation is deterministic in
// cfg.Seed and byte-identical whatever GOMAXPROCS is: every resource
// draws from its own RNG stream derived from (Seed, ID), resources are
// generated on GOMAXPROCS workers, and typo tags are interned afterwards
// in resource order.
func Generate(cfg Config) (*Dataset, error) {
	return generate(cfg, runtime.GOMAXPROCS(0))
}

// generate is Generate on the given number of workers.
func generate(cfg Config, workers int) (*Dataset, error) {
	cfg = cfg.normalize()
	ds := &Dataset{
		Cfg:    cfg,
		Vocab:  tags.NewVocab(),
		Tax:    taxonomy.BuildDefault(cfg.MinLeaves),
		byName: make(map[string]int),
	}

	pools := buildTagPools(ds.Vocab, ds.Tax, cfg)

	leaves := ds.Tax.Leaves()
	if len(leaves) == 0 {
		return nil, fmt.Errorf("synth: taxonomy has no leaves")
	}

	// Fix every resource's leaf and drift spec up front. Ordinary
	// resources are assigned to leaves round-robin with a seeded shuffle
	// so category sizes are balanced but not striped; the case-study
	// drift resources follow them.
	total := cfg.NResources + len(cfg.Drift)
	leafOf := make([]taxonomy.NodeID, total)
	specOf := make([]*DriftSpec, total)
	errs := make([]error, total)
	order := rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed) ^ 0xfeed)))).Perm(cfg.NResources)
	for i := 0; i < cfg.NResources; i++ {
		leafOf[i] = leaves[order[i]%len(leaves)]
	}
	for di := range cfg.Drift {
		id := cfg.NResources + di
		specOf[id] = &cfg.Drift[di]
		if leafOf[id] = ds.Tax.FindLeaf(cfg.Drift[di].Leaf); leafOf[id] < 0 {
			errs[id] = fmt.Errorf("synth: drift spec %q names unknown leaf %q", cfg.Drift[di].Name, cfg.Drift[di].Leaf)
		}
	}

	// Workers read the pools and taxonomy and write only resource i's
	// slots. The vocabulary is not touched: a worker draws resource i's
	// j-th typo as the placeholder id base+j−1, above every pool id.
	base := tags.Tag(ds.Vocab.Size())
	ds.Resources = make([]Resource, total)
	typos := make([]int, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < total; i = int(next.Add(1)) - 1 {
				if errs[i] == nil {
					ds.Resources[i], typos[i], errs[i] = generateResource(cfg, pools, ds.Tax, base, i, leafOf[i], specOf[i])
				}
			}
		}()
	}
	wg.Wait()
	// The lowest-index failure is the one a sequential loop meets first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Intern the typo names in the order a sequential loop interns them
	// and move each resource's placeholders onto the ids that gives: one
	// constant shift per resource, monotone and above every pool id, so
	// every post stays sorted and every MA and similarity is unchanged.
	// The stable rfd is rebuilt with its entries relabelled alike.
	var name []byte
	for i := range ds.Resources {
		r := &ds.Resources[i]
		shift := tags.Tag(ds.Vocab.Size()) - base
		for j := 1; j <= typos[i]; j++ {
			name = strconv.AppendInt(append(name[:0], "typo~r"...), int64(i), 10)
			name = strconv.AppendInt(append(name, '.'), int64(j), 10)
			ds.Vocab.Intern(string(name))
		}
		if typos[i] > 0 && shift != 0 {
			for _, p := range r.Seq {
				for k := len(p) - 1; k >= 0 && p[k] >= base; k-- {
					p[k] += shift
				}
			}
			old := r.StableRFD
			r.StableRFD = sparse.NewCounts()
			r.StableRFD.Presize(old.Posts(), old.Len())
			old.ForEach(func(t tags.Tag, n int64) {
				if t >= base {
					t += shift
				}
				if err := r.StableRFD.Insert(t, n); err != nil {
					panic(err) // unreachable: the relabel is one-to-one
				}
			})
		}
		ds.byName[r.Name] = i
	}
	return ds, nil
}

// tagPools holds the interned tag id pools the topic model draws from.
type tagPools struct {
	leafTags  map[taxonomy.NodeID][]tags.Tag
	topShared map[taxonomy.NodeID][]tags.Tag // keyed by top-level category node
	global    []tags.Tag
	spam      []tags.Tag
}

// buildTagPools interns every pool tag. The first tag of each leaf pool is
// the lower-cased leaf name itself, so case-study rfd's read naturally
// ("physics", "java", ...).
func buildTagPools(v *tags.Vocab, tax *taxonomy.Tree, cfg Config) *tagPools {
	p := &tagPools{
		leafTags:  make(map[taxonomy.NodeID][]tags.Tag),
		topShared: make(map[taxonomy.NodeID][]tags.Tag),
	}
	for _, leaf := range tax.Leaves() {
		base := strings.ToLower(tax.Name(leaf))
		pool := make([]tags.Tag, 0, cfg.TagsPerLeaf)
		pool = append(pool, v.Intern(base))
		for i := 1; i < cfg.TagsPerLeaf; i++ {
			pool = append(pool, v.Intern(fmt.Sprintf("%s-%d", base, i)))
		}
		p.leafTags[leaf] = pool

		top := tax.Parent(leaf)
		if _, ok := p.topShared[top]; !ok {
			tbase := strings.ToLower(tax.Name(top))
			shared := make([]tags.Tag, 0, cfg.SharedTagsPerTop)
			shared = append(shared, v.Intern(tbase))
			for i := 1; i < cfg.SharedTagsPerTop; i++ {
				shared = append(shared, v.Intern(fmt.Sprintf("%s-%d", tbase, i)))
			}
			p.topShared[top] = shared
		}
	}
	globalNames := []string{
		"web", "cool", "useful", "free", "online", "tools", "reference",
		"howto", "daily", "blog", "news", "fun", "awesome", "resources",
		"tips", "guide", "design", "software", "internet", "bookmark",
		"read-later", "work", "learning", "archive",
	}
	for i := 0; i < cfg.GlobalTags; i++ {
		if i < len(globalNames) {
			p.global = append(p.global, v.Intern(globalNames[i]))
		} else {
			p.global = append(p.global, v.Intern(fmt.Sprintf("general-%d", i)))
		}
	}
	spamNames := []string{
		"buy-now", "cheap", "discount", "free-money", "casino", "winner",
		"click-here", "best-price", "pills", "limited-offer", "earn-fast", "promo",
	}
	for i := 0; i < cfg.SpamTags; i++ {
		if i < len(spamNames) {
			p.spam = append(p.spam, v.Intern(spamNames[i]))
		} else {
			p.spam = append(p.spam, v.Intern(fmt.Sprintf("spam-%d", i)))
		}
	}
	return p
}

// resourceModel bundles the sampling state of one resource.
type resourceModel struct {
	final weightedTags // true (asymptotic) tag distribution
	early weightedTags // early-phase distribution; empty if no drift
	drift int          // posts drawn from early before switching
	spam  weightedTags // shared promotional distribution; empty if off

	rng      *rand.Rand
	lenCum   []float64 // cumulative post-length weights
	noise    float64
	spamRate float64
	typoBase tags.Tag // placeholder id of the resource's first typo
	typoSeq  int      // typos drawn so far
	maxTries int
}

// buildModel creates the per-resource topic mixture: a Zipf-weighted subset
// of the leaf pool (mass 1 − ParentMix − GlobalMix), a few tags shared by
// the whole top-level category (mass ParentMix), and a few global tags
// (mass GlobalMix).
func buildModel(cfg Config, pools *tagPools, tax *taxonomy.Tree, typoBase tags.Tag, id int, leaf taxonomy.NodeID, spec *DriftSpec) *resourceModel {
	rng := resourceRNG(cfg.Seed, id)
	m := &resourceModel{
		rng:      rng,
		noise:    cfg.NoiseRate,
		spamRate: cfg.SpamRate,
		typoBase: typoBase,
		maxTries: 4*len(cfg.PostLenWeights) + 8,
	}
	if cfg.SpamRate > 0 && len(pools.spam) > 0 {
		m.spam = subDistribution(rng, pools.spam, len(pools.spam), cfg.TopicZipf)
	}
	var cum float64
	for _, w := range cfg.PostLenWeights {
		cum += w
		m.lenCum = append(m.lenCum, cum)
	}

	m.final = buildLeafMixture(cfg, pools, tax, rng, leaf)
	if spec != nil && spec.EarlyLeaf != "" {
		earlyLeaf := tax.FindLeaf(spec.EarlyLeaf)
		if earlyLeaf >= 0 {
			m.early = buildLeafMixture(cfg, pools, tax, rng, earlyLeaf)
			m.drift = spec.EarlyPosts
		}
	}
	return m
}

func buildLeafMixture(cfg Config, pools *tagPools, tax *taxonomy.Tree, rng *rand.Rand, leaf taxonomy.NodeID) weightedTags {
	k := cfg.MinTopicTags
	if cfg.MaxTopicTags > cfg.MinTopicTags {
		k += rng.Intn(cfg.MaxTopicTags - cfg.MinTopicTags + 1)
	}
	topicMass := 1 - cfg.ParentMix - cfg.GlobalMix
	topic := subDistribution(rng, pools.leafTags[leaf], k, cfg.TopicZipf)
	parentPool := pools.topShared[tax.Parent(leaf)]
	parent := subDistribution(rng, parentPool, 3+rng.Intn(3), cfg.TopicZipf)
	global := subDistribution(rng, pools.global, 4+rng.Intn(4), cfg.TopicZipf)
	return mergeWeighted(
		[]weightedTags{topic, parent, global},
		[]float64{topicMass, cfg.ParentMix, cfg.GlobalMix},
	)
}

// postLen samples the number of tags of the next post.
func (m *resourceModel) postLen() int {
	total := m.lenCum[len(m.lenCum)-1]
	x := m.rng.Float64() * total
	for i, c := range m.lenCum {
		if x < c {
			return i + 1
		}
	}
	return len(m.lenCum)
}

// nextPost samples the k-th post (1-based) of the resource.
func (m *resourceModel) nextPost(k int) tags.Post {
	dist := m.final
	if k <= m.drift && !m.early.empty() {
		dist = m.early
	}
	if m.spamRate > 0 && !m.spam.empty() && m.rng.Float64() < m.spamRate {
		// A spammer replaces this tagger: the whole post is promotional.
		dist = m.spam
	}
	want := m.postLen()
	out := make([]tags.Tag, 0, want)
	for tries := 0; len(out) < want && tries < m.maxTries; tries++ {
		var t tags.Tag
		if m.rng.Float64() < m.noise {
			// Fresh typo tag: unique name, never repeats, statistically
			// insignificant once the resource has enough posts (§I).
			// Its placeholder id is relabelled once generation ends.
			t = m.typoBase + tags.Tag(m.typoSeq)
			m.typoSeq++
		} else {
			t = dist.sample(m.rng)
		}
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = append(out, dist.sample(m.rng))
	}
	p, err := tags.Normalize(out)
	if err != nil {
		panic(err) // unreachable: out is non-empty with valid ids
	}
	return p
}

// generateResource runs the generative process for one resource:
//
//  1. sample posts until the MA score first exceeds τ_s (that k is the
//     resource's stable point; MaxPosts bounds the search),
//  2. draw a Pareto popularity factor f and extend the sequence to
//     L = min(MaxPosts, ceil(k*·f)),
//  3. choose the January prefix c_i with a popularity-correlated share.
//
// Typo tags carry placeholder ids from typoBase up; the second result is
// how many the resource drew.
func generateResource(cfg Config, pools *tagPools, tax *taxonomy.Tree, typoBase tags.Tag, id int, leaf taxonomy.NodeID, spec *DriftSpec) (Resource, int, error) {
	m := buildModel(cfg, pools, tax, typoBase, id, leaf, spec)
	tr := stability.NewTracker(cfg.PrepOmega)

	seq := make(tags.Seq, 0, 256)
	stableK := 0
	var stableRFD *sparse.Counts
	for k := 1; k <= cfg.MaxPosts; k++ {
		p := m.nextPost(k)
		seq = append(seq, p)
		tr.Observe(p)
		if ma, ok := tr.MA(); ok && ma > cfg.PrepTau {
			stableK = k
			stableRFD = tr.Snapshot()
			break
		}
	}
	if stableK == 0 {
		// The resource did not stabilize within MaxPosts. The paper's
		// dataset preparation would discard it; our generative model makes
		// this essentially impossible at the default calibration, so treat
		// it as a configuration error rather than silently skewing data.
		return Resource{}, 0, fmt.Errorf("synth: resource %d did not stabilize within %d posts; widen MaxPosts or relax PrepTau", id, cfg.MaxPosts)
	}

	// Popularity factor f ∈ [1.05, cap]: L = ceil(k*·f).
	f := 1.05 * math.Pow(1-m.rng.Float64(), -1.0/cfg.ParetoAlpha)
	if spec != nil && spec.Popularity > 0 {
		f = spec.Popularity
	}
	if f > cfg.ParetoCap {
		f = cfg.ParetoCap
	}
	targetLen := int(math.Ceil(float64(stableK) * f))
	if targetLen > cfg.MaxPosts {
		targetLen = cfg.MaxPosts
	}
	for k := len(seq) + 1; k <= targetLen; k++ {
		seq = append(seq, m.nextPost(k))
	}

	initial := januaryPrefix(cfg, m.rng, len(seq), f)
	if spec != nil && spec.InitialPosts > 0 {
		initial = spec.InitialPosts
		if initial > len(seq) {
			initial = len(seq)
		}
	}

	name := fmt.Sprintf("r%04d.%s.example", id, strings.ToLower(tax.Name(leaf)))
	if spec != nil {
		name = spec.Name
	}
	var specCopy *DriftSpec
	if spec != nil {
		sc := *spec
		specCopy = &sc
	}
	return Resource{
		ID:        id,
		Name:      name,
		Leaf:      leaf,
		Seq:       seq,
		Initial:   initial,
		StableK:   stableK,
		StableRFD: stableRFD,
		Drift:     specCopy,
	}, m.typoSeq, nil
}

// januaryPrefix chooses c_i. The share of a resource's posts that had
// already arrived by the January cut grows with popularity (popular
// resources were discovered earlier) and is log-normally jittered; this
// reproduces the paper's skew where some resources start with over 150
// posts while a quarter have at most 10 (§V-A).
func januaryPrefix(cfg Config, rng *rand.Rand, seqLen int, f float64) int {
	popBoost := 0.18
	if f > 1.02 {
		popBoost += 0.75 * math.Log(f/1.02)
	}
	if popBoost > 1.2 {
		popBoost = 1.2
	}
	jitter := math.Exp(rng.NormFloat64() * 0.7)
	share := cfg.JanuaryBase * popBoost * jitter
	if share < 0.015 {
		share = 0.015
	}
	if share > 0.72 {
		share = 0.72
	}
	c := int(math.Round(share * float64(seqLen)))
	if c < 1 {
		c = 1
	}
	if c > seqLen {
		c = seqLen
	}
	return c
}
