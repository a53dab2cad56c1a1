package strategy

import (
	"incentivetag/internal/fenwick"
)

// FC is the Free Choice strategy (§IV-A): taggers pick resources
// themselves, so CHOOSE simply reproduces organic tagger behaviour. FC
// draws resources with probability proportional to their popularity,
// which decays by one post per completed task. Popularity is the
// remaining organic post volume, queried through the OrganicWeighter
// interface if the Env provides it (exactly how the replay data
// distributes posts made after the January cut), else uniform over
// available resources. FC is the baseline that "follows the practice of
// existing collaborative tagging systems".
type FC struct {
	env  Env
	tree *fenwick.Tree
}

// OrganicWeighter is an optional Env capability: the organic popularity of
// each resource (in the replay protocol: how many posts the resource still
// has in the recorded stream). The simulator implements it.
type OrganicWeighter interface {
	OrganicWeight(i int) float64
}

// NewFC returns the Free Choice strategy.
func NewFC() *FC { return &FC{} }

func (s *FC) Name() string { return "FC" }

// Init builds the popularity sampling structure.
func (s *FC) Init(env Env) {
	validateEnv(env)
	s.env = env
	ws := make([]float64, env.N())
	if ow, ok := env.(OrganicWeighter); ok {
		for i := range ws {
			ws[i] = ow.OrganicWeight(i)
		}
	} else {
		for i := range ws {
			if env.Available(i) {
				ws[i] = 1
			}
		}
	}
	s.tree = fenwick.FromWeights(ws)
}

// Choose samples one resource; unavailable or unaffordable draws are
// zeroed out and redrawn.
func (s *FC) Choose(remaining int) (int, bool) {
	for {
		total := s.tree.Total()
		if total <= 0 {
			return -1, false
		}
		i := s.tree.Search(s.env.Rand().Float64() * total)
		if i < 0 {
			return -1, false
		}
		if !s.env.Available(i) || s.env.Cost(i) > remaining {
			s.tree.Set(i, 0)
			continue
		}
		return i, true
	}
}

// Update decays the chosen resource's popularity by one post.
func (s *FC) Update(i int) { s.tree.Add(i, -1) }

// RR is the Round Robin strategy (Algorithm 2): resources are cycled in
// id order regardless of their state. Exhausted resources are skipped.
type RR struct {
	env  Env
	last int
}

// NewRR returns the Round Robin strategy.
func NewRR() *RR { return &RR{} }

func (s *RR) Name() string { return "RR" }

func (s *RR) Init(env Env) {
	validateEnv(env)
	s.env = env
	s.last = 0 // Algorithm 2: l ← 1 (0-based here)
}

func (s *RR) Choose(remaining int) (int, bool) {
	n := s.env.N()
	for tries := 0; tries < n; tries++ {
		i := (s.last + tries) % n
		if s.env.Available(i) && s.env.Cost(i) <= remaining {
			s.last = i // UPDATE advances past it
			return i, true
		}
	}
	return -1, false
}

func (s *RR) Update(i int) { s.last = i + 1 }

// FP is the Fewest Posts First strategy (Algorithm 3): always allocate
// the next post task to the resource with the smallest c_i + x_i. A
// priority queue keyed by post count realizes CHOOSE in O(log n).
type FP struct {
	env Env
	pq  *lazyPQ
}

// NewFP returns the Fewest Posts First strategy.
func NewFP() *FP { return &FP{} }

func (s *FP) Name() string { return "FP" }

func (s *FP) Init(env Env) {
	validateEnv(env)
	s.env = env
	s.pq = newLazyPQ(env.N())
	for i := 0; i < env.N(); i++ {
		if env.Available(i) {
			s.pq.push(i, float64(env.Count(i)))
		}
	}
}

func (s *FP) Choose(remaining int) (int, bool) {
	var skipped []int
	defer func() {
		for _, id := range skipped {
			s.pq.push(id, float64(s.env.Count(id)))
		}
	}()
	for {
		i, ok := s.pq.pop()
		if !ok {
			return -1, false
		}
		if !s.env.Available(i) {
			continue // drop permanently; replay exhausted
		}
		if s.env.Cost(i) > remaining {
			skipped = append(skipped, i)
			continue
		}
		return i, true
	}
}

func (s *FP) Update(i int) {
	if s.env.Available(i) {
		s.pq.push(i, float64(s.env.Count(i)))
	} else {
		s.pq.invalidate(i)
	}
}

// MU is the Most Unstable First strategy (Algorithm 4): allocate to the
// resource with the smallest MA score. Resources that have not received ω
// posts have no MA score and are ignored — the weakness FP-MU repairs.
type MU struct {
	env Env
	pq  *lazyPQ
}

// NewMU returns the Most Unstable First strategy.
func NewMU() *MU { return &MU{} }

func (s *MU) Name() string { return "MU" }

func (s *MU) Init(env Env) {
	validateEnv(env)
	s.env = env
	s.pq = newLazyPQ(env.N())
	for i := 0; i < env.N(); i++ {
		if !s.env.Available(i) {
			continue
		}
		if ma, ok := env.MA(i); ok {
			s.pq.push(i, ma)
		}
	}
}

func (s *MU) Choose(remaining int) (int, bool) {
	var skipped []int
	defer func() {
		for _, id := range skipped {
			if ma, ok := s.env.MA(id); ok {
				s.pq.push(id, ma)
			}
		}
	}()
	for {
		i, ok := s.pq.pop()
		if !ok {
			return -1, false
		}
		if !s.env.Available(i) {
			continue
		}
		if s.env.Cost(i) > remaining {
			skipped = append(skipped, i)
			continue
		}
		return i, true
	}
}

func (s *MU) Update(i int) {
	if !s.env.Available(i) {
		s.pq.invalidate(i)
		return
	}
	if ma, ok := s.env.MA(i); ok {
		s.pq.push(i, ma)
	}
}

// FPMU is the hybrid strategy (Algorithm 5): first a warm-up stage brings
// every resource to at least ω posts using FP (budget
// b = min(B, Σ max(0, ω − c_i))), then MU takes over with MA scores
// defined for all resources. A larger ω therefore means a longer warm-up
// and behaviour closer to pure FP (§V-B.5).
type FPMU struct {
	env    Env
	fp     *FP
	mu     *MU
	warmup int // remaining warm-up budget b
	inMU   bool
	omega  int
}

// NewFPMU returns the hybrid strategy. omega must match the environment's
// MA window (it determines the warm-up target of ω posts per resource).
func NewFPMU(omega int) *FPMU {
	if omega < 2 {
		panic("strategy: FP-MU omega must be ≥ 2")
	}
	return &FPMU{omega: omega}
}

func (s *FPMU) Name() string { return "FP-MU" }

func (s *FPMU) Init(env Env) {
	validateEnv(env)
	s.env = env
	s.fp = NewFP()
	s.fp.Init(env)
	s.mu = nil
	s.inMU = false
	// Algorithm 5 steps 1–2: total budget needed to reach ω posts
	// everywhere. Capping by B happens implicitly: the Runner stops at B.
	s.warmup = 0
	for i := 0; i < env.N(); i++ {
		if need := s.omega - env.Count(i); need > 0 && env.Available(i) {
			s.warmup += need
		}
	}
}

func (s *FPMU) switchToMU() {
	s.inMU = true
	s.mu = NewMU()
	s.mu.Init(s.env)
}

func (s *FPMU) Choose(remaining int) (int, bool) {
	if !s.inMU && s.warmup <= 0 {
		s.switchToMU()
	}
	if s.inMU {
		return s.mu.Choose(remaining)
	}
	i, ok := s.fp.Choose(remaining)
	if !ok {
		// FP exhausted before warm-up completed; fall through to MU so
		// the remaining budget is still spent.
		s.switchToMU()
		return s.mu.Choose(remaining)
	}
	return i, ok
}

func (s *FPMU) Update(i int) {
	if s.inMU {
		s.mu.Update(i)
		return
	}
	s.fp.Update(i)
	s.warmup--
}
