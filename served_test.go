package incentivetag

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"incentivetag/internal/stability"
)

// TestServedLoopOrderFreeOracle checks the served allocation loop
// without replaying its schedule. Eight workers Lease, read the
// resource's count k and Fulfill with its k-th recorded post, expiring
// one lease in ten; a worker handed a resource with no recorded post
// left keeps that lease unsettled, so the resource leaves the loop. In
// whatever order the resources were served, each one then holds its
// first k_i recorded posts, so at quiesce:
//   - QualityOf and MA equal a fresh tracker replay of those posts, bitwise;
//   - over-tagged, under-tagged and wasted posts are exact sums of
//     per-resource functions of k_i, and spent is Σ (k_i − c_i) ≤ B;
//   - mean quality equals Σ q_i / n up to the shards' order of summation.
//
// A resource handed out again before its fulfilled post is applied gets
// one recorded post twice, and its quality then leaves the replay's.
func TestServedLoopOrderFreeOracle(t *testing.T) {
	ds, err := Generate(DefaultConfig(200, 29))
	if err != nil {
		t.Fatal(err)
	}
	const budget, workers = 4000, 8
	for _, name := range []string{"RR", "FP", "MU", "FP-MU"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				svc, err := NewService(ds, ServiceOptions{Strategy: name, Shards: shards, Budget: budget})
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(rng *rand.Rand) {
						defer wg.Done()
						for {
							r, lease, ok := svc.Lease(math.MaxInt32)
							if !ok {
								return
							}
							seq := ds.Resources[r].Seq
							k := svc.Count(r)
							switch {
							case k >= len(seq):
								// Nothing left to post: hold the lease.
							case rng.Intn(10) == 0:
								if err := svc.Expire(lease); err != nil {
									t.Error(err)
									return
								}
							default:
								if err := svc.Fulfill(lease, seq[k]); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}(rand.New(rand.NewSource(int64(w))))
				}
				wg.Wait()

				var over, under, wasted, spent int
				var qsum float64
				for i := range ds.Resources {
					r := &ds.Resources[i]
					k := svc.Count(i)
					tr := stability.NewTracker(5)
					for _, p := range r.Seq[:k] {
						tr.Observe(p)
					}
					q := NewReference(r.StableRFD).Of(tr.Counts())
					ma, maOK := tr.MA()
					gotMA, gotOK := svc.eng.MA(i)
					if got := svc.eng.QualityOf(i); math.Float64bits(got) != math.Float64bits(q) ||
						gotOK != maOK || math.Float64bits(gotMA) != math.Float64bits(ma) {
						t.Fatalf("resource %d at count %d: quality %.17g, MA %v/%v; its first %d recorded posts give %.17g, %v/%v",
							i, k, got, gotMA, gotOK, k, q, ma, maOK)
					}
					qsum += q
					if k >= r.StableK {
						over++
					}
					if k <= ds.Cfg.UnderTaggedThreshold {
						under++
					}
					wasted += max(0, k-max(r.Initial, r.StableK))
					spent += k - r.Initial
				}
				m := svc.Snapshot()
				if m.OverTagged != over || m.UnderTagged != under || m.WastedPosts != wasted || m.Spent != spent {
					t.Fatalf("over %d, under %d, wasted %d, spent %d; the counts imply %d, %d, %d, %d",
						m.OverTagged, m.UnderTagged, m.WastedPosts, m.Spent, over, under, wasted, spent)
				}
				if st := svc.AllocStats(); st.Spent != spent || spent > budget {
					t.Fatalf("allocator spent %d, counts imply %d, budget %d", st.Spent, spent, budget)
				}
				if mean := qsum / float64(len(ds.Resources)); math.Abs(m.MeanQuality-mean) > 1e-12 {
					t.Fatalf("mean quality %.17g, per-resource sum gives %.17g", m.MeanQuality, mean)
				}
			})
		}
	}
}
