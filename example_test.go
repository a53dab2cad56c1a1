package incentivetag_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"incentivetag"
)

// Generate a small corpus, measure tagging stability and quality, run
// the recommended FP strategy against the FC baseline, and print the
// quality lift: the paper's headline result.
func Example() {
	// 1. A calibrated synthetic del.icio.us-style corpus: 300 resources,
	//    deterministic under seed 7.
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(300, 7))
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	fmt.Printf("corpus: %d resources, %d posts, %.0f%% under-tagged at the cut\n",
		st.NResources, st.TotalPosts, 100*float64(st.UnderTagged)/float64(st.NResources))

	// 2. Tagging stability on a single resource: replay its sequence and
	//    watch the MA score converge (Definitions 7–8).
	r := &ds.Resources[0]
	tracker := incentivetag.NewTracker(20)
	for _, post := range r.Seq {
		tracker.Observe(post)
	}
	if ma, ok := tracker.MA(); ok {
		fmt.Printf("%s: %d posts, final MA score %.4f, stable point k*=%d\n",
			r.Name, len(r.Seq), ma, r.StableK)
	}

	// 3. Tagging quality against the stable rfd (Definition 9).
	ref := incentivetag.NewReference(r.StableRFD)
	fmt.Printf("%s: quality with initial %d posts: %.4f\n",
		r.Name, r.Initial, ref.Of(tracker.Counts())) // full-sequence counts ≈ 1.0 vs stable

	// 4. Allocate a budget of 800 post tasks with Fewest-Posts-First (the
	//    paper's recommended strategy) and with Free Choice.
	sim := incentivetag.NewSimulation(ds, incentivetag.Options{Seed: 7})
	for _, name := range []string{"FP", "FC"} {
		res, err := sim.Run(name, 800)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3s: quality %.4f -> %.4f (spent %d/%d)\n",
			name, res.InitialQuality, res.FinalQuality, res.Spent, res.Budget)
	}

	// 5. How far from optimal? Solve the offline DP on a small instance.
	small := incentivetag.NewSimulation(ds, incentivetag.Options{Seed: 7, Resources: 100})
	x, optQ, err := small.SolveOptimal(300)
	if err != nil {
		log.Fatal(err)
	}
	fpRes, err := small.Run("FP", 300)
	if err != nil {
		log.Fatal(err)
	}
	nz := 0
	for _, xi := range x {
		if xi > 0 {
			nz++
		}
	}
	fmt.Printf("optimal(DP) on 100 resources: quality %.4f across %d funded resources; FP reaches %.4f\n",
		optQ, nz, fpRes.FinalQuality)
	// Output:
	// corpus: 305 resources, 100750 posts, 24% under-tagged at the cut
	// r0000.religion.example: 176 posts, final MA score 0.9999, stable point k*=138
	// r0000.religion.example: quality with initial 19 posts: 0.9984
	// FP : quality 0.9209 -> 0.9522 (spent 800/800)
	// FC : quality 0.9209 -> 0.9356 (spent 800/800)
	// optimal(DP) on 100 resources: quality 0.9608 across 45 funded resources; FP reaches 0.9515
}

// The Table VI workflow end to end: a physics site whose early taggers
// described only its Java implementation is repaired by incentive
// allocation, flipping its top-10 most-similar list from Java resources
// to physics resources (§V-C.1).
func ExampleSimulation_SnapshotAfter() {
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(600, 42))
	if err != nil {
		log.Fatal(err)
	}
	const subjectName = "www.myphysicslab.example"
	subject, ok := ds.ByName(subjectName)
	if !ok {
		log.Fatalf("case-study resource %s missing", subjectName)
	}
	r := &ds.Resources[subject]
	fmt.Printf("subject %s: true category %s, %d initial posts (early posts drawn from Java)\n\n",
		r.Name, ds.Tax.Name(r.Leaf), r.Initial)

	sim := incentivetag.NewSimulation(ds, incentivetag.Options{Seed: 42})
	const budget = 3000

	fpIndex, err := sim.SnapshotAfter("FP", budget)
	if err != nil {
		log.Fatal(err)
	}
	fcIndex, err := sim.SnapshotAfter("FC", budget)
	if err != nil {
		log.Fatal(err)
	}
	snapshots := []struct {
		label string
		index *incentivetag.SimilarityIndex
	}{
		{"Jan 31 (initial)", sim.SnapshotInitial()},
		{fmt.Sprintf("FC, B=%d", budget), fcIndex},
		{fmt.Sprintf("FP, B=%d", budget), fpIndex},
		{"Dec 31 (ideal)", sim.SnapshotFull()},
	}

	for _, snap := range snapshots {
		top := snap.index.TopK(subject, 10)
		inCategory := 0
		fmt.Printf("-- %s\n", snap.label)
		for rank, sc := range top {
			peer := &ds.Resources[sc.ID]
			cat := ds.Tax.Name(peer.Leaf)
			if peer.Leaf == r.Leaf {
				inCategory++
			}
			fmt.Printf("  %2d. %-34s %-14s %.4f\n", rank+1, peer.Name, cat, sc.Score)
		}
		fmt.Printf("  => %d/10 in the subject's true category\n\n", inCategory)
	}
	fmt.Println("expected shape (paper Table VI): initial list off-topic; FP close to ideal; FC in between")
	// Output:
	// subject www.myphysicslab.example: true category Physics, 7 initial posts (early posts drawn from Java)
	//
	// -- Jan 31 (initial)
	//    1. r0193.java.example                 Java           0.1977
	//    2. r0232.java.example                 Java           0.1524
	//    3. r0469.java.example                 Java           0.1499
	//    4. r0190.basketball.example           Basketball     0.1268
	//    5. r0088.java.example                 Java           0.1250
	//    6. r0544.java.example                 Java           0.0999
	//    7. r0054.astronomy.example            Astronomy      0.0886
	//    8. r0298.travel.example               Travel         0.0761
	//    9. r0070.java.example                 Java           0.0738
	//   10. r0550.physics.example              Physics        0.0733
	//   => 1/10 in the subject's true category
	//
	// -- FC, B=3000
	//    1. r0081.physics.example              Physics        0.2289
	//    2. r0550.physics.example              Physics        0.1724
	//    3. r0239.physics.example              Physics        0.1713
	//    4. r0516.physics.example              Physics        0.1461
	//    5. r0193.java.example                 Java           0.1448
	//    6. r0478.physics.example              Physics        0.1312
	//    7. r0338.physics.example              Physics        0.1299
	//    8. r0232.java.example                 Java           0.1184
	//    9. r0088.java.example                 Java           0.1161
	//   10. r0469.java.example                 Java           0.1076
	//   => 6/10 in the subject's true category
	//
	// -- FP, B=3000
	//    1. r0550.physics.example              Physics        0.2941
	//    2. r0441.physics.example              Physics        0.1455
	//    3. r0516.physics.example              Physics        0.1390
	//    4. r0478.physics.example              Physics        0.1056
	//    5. r0239.physics.example              Physics        0.1021
	//    6. r0081.physics.example              Physics        0.0918
	//    7. r0338.physics.example              Physics        0.0877
	//    8. r0544.java.example                 Java           0.0778
	//    9. r0193.java.example                 Java           0.0758
	//   10. r0554.physics.example              Physics        0.0704
	//   => 8/10 in the subject's true category
	//
	// -- Dec 31 (ideal)
	//    1. r0550.physics.example              Physics        0.3420
	//    2. r0134.physics.example              Physics        0.2270
	//    3. r0478.physics.example              Physics        0.2246
	//    4. r0516.physics.example              Physics        0.1886
	//    5. r0441.physics.example              Physics        0.1842
	//    6. r0554.physics.example              Physics        0.1636
	//    7. r0338.physics.example              Physics        0.1302
	//    8. r0239.physics.example              Physics        0.1270
	//    9. r0081.physics.example              Physics        0.1087
	//   10. r0553.linux.example                Linux          0.0661
	//   => 9/10 in the subject's true category
	//
	// expected shape (paper Table VI): initial list off-topic; FP close to ideal; FC in between
}

// The persistence substrate: a corpus is written into the embedded
// append-only tagstore, reloaded, verified, and then recovered after a
// simulated crash that tears the log's tail.
func ExampleLoadDataset() {
	dir, err := os.MkdirTemp("", "tagstore-walkthrough-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(120, 3))
	if err != nil {
		log.Fatal(err)
	}
	before := ds.Stats()
	fmt.Printf("generated: %d resources, %d posts\n", before.NResources, before.TotalPosts)

	corpusDir := filepath.Join(dir, "corpus")
	if err := incentivetag.SaveDataset(ds, corpusDir); err != nil {
		log.Fatal(err)
	}
	loaded, err := incentivetag.LoadDataset(corpusDir)
	if err != nil {
		log.Fatal(err)
	}
	after := loaded.Stats()
	roundTrip := "ok"
	if before.TotalPosts != after.TotalPosts {
		roundTrip = "MISMATCH"
	}
	fmt.Printf("reloaded: %d resources, %d posts (round-trip %s)\n",
		after.NResources, after.TotalPosts, roundTrip)

	// Simulate a crash mid-append: chop bytes off the tail of the last
	// log segment. The store detects the torn record on reopen and
	// truncates back to the last complete post.
	segs, err := filepath.Glob(filepath.Join(corpusDir, "posts", "seg-*.log"))
	if err != nil || len(segs) == 0 {
		log.Fatalf("no segments found: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated crash: tore 7 bytes off %s\n", filepath.Base(last))

	recovered, err := incentivetag.LoadDataset(corpusDir)
	if err == nil {
		// The torn post belonged to the final resource; its metadata now
		// disagrees with the recovered log, which Load reports — unless
		// the torn bytes were padding-free, in which case the sequence
		// shrank by exactly one post.
		fmt.Printf("recovered cleanly: %d posts\n", recovered.Stats().TotalPosts)
	} else {
		fmt.Printf("recovery surfaced the data loss explicitly: %v\n", err)
	}

	// A simulation runs fine on the intact reload.
	sim := incentivetag.NewSimulation(loaded, incentivetag.Options{Seed: 3})
	res, err := sim.Run("FP", 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation on reloaded corpus: quality %.4f -> %.4f\n",
		res.InitialQuality, res.FinalQuality)
	// Output:
	// generated: 125 resources, 41504 posts
	// reloaded: 125 resources, 41504 posts (round-trip ok)
	// simulated crash: tore 7 bytes off seg-000001.log
	// recovery surfaced the data loss explicitly: synth: resource 124 has 1039 stored posts, meta says 1040
	// simulation on reloaded corpus: quality 0.9141 -> 0.9481
}

// The paper's §VI future-work extension "post tasks with different
// costs": resources whose posts are expensive to source (niche topics
// need specialist taggers) compete for budget against cheap mainstream
// ones. The strategies' CHOOSE respects affordability, and the offline
// solvers optimize gain per reward unit.
func ExampleSimulation_SetCosts() {
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(250, 19))
	if err != nil {
		log.Fatal(err)
	}

	// Cost model: most resources cost 1 unit per post task; a third cost
	// 2; a handful of hard-to-source ones cost 5.
	rng := rand.New(rand.NewSource(19))
	costs := make([]int, ds.N())
	counts := map[int]int{}
	for i := range costs {
		switch r := rng.Float64(); {
		case r < 0.10:
			costs[i] = 5
		case r < 0.40:
			costs[i] = 2
		default:
			costs[i] = 1
		}
		counts[costs[i]]++
	}
	fmt.Printf("cost model: %d cheap (1u), %d medium (2u), %d expensive (5u)\n",
		counts[1], counts[2], counts[5])

	const budget = 800
	for _, name := range []string{"FP", "MU", "RR"} {
		sim := incentivetag.NewSimulation(ds, incentivetag.Options{Seed: 19})
		if err := sim.SetCosts(costs); err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(name, budget)
		if err != nil {
			log.Fatal(err)
		}
		tasks := 0
		for _, x := range res.Assignment {
			tasks += x
		}
		fmt.Printf("%-3s: %3d tasks for %d units, quality %.4f -> %.4f\n",
			name, tasks, res.Spent, res.InitialQuality, res.FinalQuality)
	}

	// The greedy oracle allocates per unit of cost: expensive resources
	// must earn their price in quality gain.
	sim := incentivetag.NewSimulation(ds, incentivetag.Options{Seed: 19})
	if err := sim.SetCosts(costs); err != nil {
		log.Fatal(err)
	}
	x, q, err := sim.SolveGreedy(budget)
	if err != nil {
		log.Fatal(err)
	}
	spent := map[int]int{}
	for i, xi := range x {
		spent[costs[i]] += xi * costs[i]
	}
	fmt.Printf("greedy oracle: quality %.4f; budget split — %du on cheap, %du on medium, %du on expensive\n",
		q, spent[1], spent[2], spent[5])
	// Output:
	// cost model: 163 cheap (1u), 66 medium (2u), 26 expensive (5u)
	// FP : 470 tasks for 800 units, quality 0.9234 -> 0.9502
	// MU : 491 tasks for 800 units, quality 0.9234 -> 0.9492
	// RR : 475 tasks for 800 units, quality 0.9234 -> 0.9338
	// greedy oracle: quality 0.9621; budget split — 547u on cheap, 238u on medium, 15u on expensive
}
