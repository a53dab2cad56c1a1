package main

import (
	"fmt"
	"math"
	"time"

	"incentivetag"
	"incentivetag/internal/sim"
	"incentivetag/internal/stability"
)

// replay-fig6: the paper reproduction in process, no HTTP and no WAL.
// Round after round, each of RR, FP, MU and FP-MU replays budget 10000
// with a checkpoint every 100 units — the Figure-6 curve, what
// `tagsim -exp fig6*` runs. Only the kernels work here (count-vector and
// MA updates, strategy heaps, the engine's O(1) metrics), so an edge
// optimisation must leave it flat and a kernel change shows here first.

var replayStrategies = []string{"RR", "FP", "MU", "FP-MU"}

// replayWindow is this workload's statistics window: long enough to hold
// the hundred replays a window's own 90th percentile needs.
const replayWindow = 5 * time.Second

// replayEnv is one set-up of the workload.
type replayEnv struct {
	cfg         runConfig
	corpus      *corpus
	data        *sim.Data
	checkpoints []int
	want        map[string][]sim.Checkpoint // first replay of each strategy, oracle-checked by gate
}

func setupReplay(cfg runConfig) (*replayEnv, error) {
	c, err := newCorpus(cfg.sc.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &replayEnv{cfg: cfg, corpus: c, data: sim.FromDataset(c.ds, 0), want: map[string][]sim.Checkpoint{}}
	if err := e.data.Validate(); err != nil {
		return nil, err
	}
	for b := cfg.sc.every; b <= cfg.sc.budget; b += cfg.sc.every {
		e.checkpoints = append(e.checkpoints, b)
	}
	// Warm-up: one round, which also yields the series every later round
	// must reproduce.
	for _, name := range replayStrategies {
		cps, _, _, err := e.replay(name)
		if err != nil {
			return nil, err
		}
		e.want[name] = cps
	}
	return e, nil
}

// replay runs one strategy once, as Simulation.RunCheckpoints does, and
// returns its checkpoints with the time to prime the state and to run.
func (e *replayEnv) replay(name string) (cps []sim.Checkpoint, prime, run time.Duration, err error) {
	strat, err := incentivetag.NewStrategy(name, 5)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	st := sim.NewState(e.data, 5, e.cfg.seed)
	t1 := time.Now()
	cps, err = st.Run(strat, e.cfg.sc.budget, e.checkpoints)
	return cps, t1.Sub(t0), time.Since(t1), err
}

// sameSeries compares two checkpoint series bit for bit, wall times aside.
func sameSeries(got, want []sim.Checkpoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d checkpoints, want %d", len(got), len(want))
	}
	for k := range got {
		a, b := got[k], want[k]
		a.Elapsed, b.Elapsed = 0, 0
		if a != b {
			return fmt.Errorf("checkpoint %d: %+v, want %+v", k, a, b)
		}
	}
	return nil
}

// gate holds every strategy's series to RunReference, the seed's
// full-scan oracle, at the run's seed: integer metrics and the
// under-tagged share bit for bit, mean quality within 1e-9 (the oracle
// sums the n qualities in another order — the tolerance of the repository's
// own equivalence test). It returns the oracle's run times.
func (e *replayEnv) gate() ([]float64, error) {
	var took []float64
	for _, name := range replayStrategies {
		strat, err := incentivetag.NewStrategy(name, 5)
		if err != nil {
			return nil, err
		}
		st := sim.NewState(e.data, 5, e.cfg.seed)
		t0 := time.Now()
		ref, err := st.RunReference(strat, e.cfg.sc.budget, e.checkpoints)
		took = append(took, float64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		got := e.want[name]
		if len(got) != len(ref) {
			return nil, fmt.Errorf("%s: %d checkpoints, oracle has %d", name, len(got), len(ref))
		}
		for k := range got {
			a, b := got[k], ref[k]
			if e.cfg.sc.corruptGate && name == "RR" && k == 0 {
				b.WastedPosts++
			}
			if a.Budget != b.Budget || a.OverTagged != b.OverTagged || a.UnderTagged != b.UnderTagged ||
				a.WastedPosts != b.WastedPosts || a.UnderTaggedPct != b.UnderTaggedPct ||
				!(math.Abs(a.MeanQuality-b.MeanQuality) <= 1e-9) {
				return nil, fmt.Errorf("%s checkpoint %d: %+v, oracle has %+v", name, k, a, b)
			}
		}
	}
	return took, nil
}

func runReplayFig6(cfg runConfig) (result, error) {
	res := newResult()
	setups := cfg.sc.setups
	if cfg.traced {
		setups = 1
	}
	e, setup, err := repeatSetup(setups, func() (*replayEnv, error) { return setupReplay(cfg) }, func(*replayEnv) error { return nil })
	if err != nil {
		return res, err
	}
	oracle, err := e.gate()
	if err != nil {
		return res, fmt.Errorf("%s gate: %w", cfg.workload, err)
	}

	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		length /= 2
	}
	var (
		st      = phaseStats{done: []int{0}, lat: [][]uint32{nil}} // class 0: one strategy replay
		cur     = window{done: []int{0}}
		rounds  []float64
		speeds  []float64
		primeNs []float64
		runNs   = map[string][]float64{}
	)
	heap := startHeapSampler()
	mem0 := readMem()
	start := time.Now()
	winStart, winCPU := start, cpuTime()
	cpu0 := winCPU
	for time.Since(start) < length {
		roundStart := time.Now()
		for _, name := range replayStrategies {
			cps, prime, run, err := e.replay(name)
			if err != nil {
				return res, err
			}
			if err := sameSeries(cps, e.want[name]); err != nil {
				return res, fmt.Errorf("%s gate: %s replay diverged from its first run: %w", cfg.workload, name, err)
			}
			ns := uint32(min(prime+run, time.Duration(math.MaxUint32)))
			st.lat[0] = append(st.lat[0], ns)
			cur.lat = append(cur.lat, ns)
			cur.done[0] += cps[len(cps)-1].Budget
			st.done[0] += cps[len(cps)-1].Budget
			primeNs = append(primeNs, float64(prime))
			runNs[name] = append(runNs[name], float64(run))
			res.attempted++
			if now := time.Now(); now.Sub(winStart) >= replayWindow {
				cpu := cpuTime()
				cur.dur, cur.cpu, cur.speed = now.Sub(winStart), cpu-winCPU, medianF(speeds)/probeReference
				sortU32(cur.lat)
				st.windows = append(st.windows, cur)
				cur, winStart, winCPU, speeds = window{done: []int{0}}, now, cpu, speeds[:0]
			}
		}
		// One goroutine: the speed probe takes its turn between rounds.
		speeds = append(speeds, probeOnce())
		rounds = append(rounds, time.Since(roundStart).Seconds())
	}
	st.elapsed = time.Since(start)
	cpu := cpuTime() - cpu0
	mem := memBetween(mem0, readMem())
	heapMB := heap.medianMB()
	sortU32(st.lat[0])
	units := st.done[0]
	one := []int{1}
	fmt.Fprintf(cfg.log, "  %d rounds of %v at budget %d, %d checkpoints each; median round %.2f ms\n",
		len(rounds), replayStrategies, cfg.sc.budget, len(e.checkpoints), medianF(rounds)*1e3)
	describeSpeed(cfg.log, st.speeds())

	if !cfg.traced {
		res.metrics["setup_s"] = setup.Seconds()
		res.metrics["ops_per_s"] = st.rate(one)
		res.metrics["p50_ms"] = st.latencyMs(0.50)
		res.metrics["p90_ms"] = st.latencyMs(0.90)
		res.metrics["cpu_us_per_op"] = st.cpuPerUnit(one, cpu) / 1e3
		res.metrics["heap_live_mb"] = heapMB
		res.samples["ops_per_s"] = units
		res.samples["p50_ms"] = len(st.lat[0])
		res.samples["p90_ms"] = len(st.lat[0])
		seriesOf(&res, st, st, one)
		return res, nil
	}

	rec := newRecorder(cfg.workload)
	for _, name := range replayStrategies {
		res.metrics["sim.run_ms."+name] = medianF(runNs[name]) / 1e6
		res.samples["sim.run_ms."+name] = len(runNs[name])
	}
	res.metrics["sim.newstate_ms"] = medianF(primeNs) / 1e6
	res.metrics["sim.reference_run_ms"] = medianF(oracle) / 1e6
	res.metrics["strategy.fpmu_extra_ms"] = res.metrics["sim.run_ms.FP-MU"] - res.metrics["sim.run_ms.RR"]
	res.metrics["process.allocs_per_op"] = float64(mem.mallocs) / float64(units)
	res.metrics["process.bytes_per_op"] = float64(mem.bytes) / float64(units)
	res.metrics["process.gc_pause_p99_us"] = float64(mem.pauseP99.Nanoseconds()) / 1e3
	if err := e.ladder(rec, &res); err != nil {
		return res, fmt.Errorf("%s ladder: %w", cfg.workload, err)
	}
	path, err := rec.write(cfg.outDir)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "  trace written to %s\n", path)
	return res, nil
}

// ladder times the kernels a replay is made of: Tracker.Observe on the
// map-backed trackers the simulator uses, the engine's O(1) metric
// snapshot behind every checkpoint, and — once, at the suite's tiny scale
// — the offline DP and the greedy oracle the paper compares against.
func (e *replayEnv) ladder(rec *recorder, res *result) error {
	ds := e.corpus.ds
	batches := e.corpus.batches(ingestBatch)
	if len(batches) > e.cfg.sc.ladderBatches {
		batches = batches[:e.cfg.sc.ladderBatches]
	}
	trackers := make([]*stability.Tracker, ds.N())
	for i := range trackers {
		trackers[i] = stability.NewTracker(5)
		for _, p := range ds.Resources[i].Seq[:ds.Resources[i].Initial] {
			trackers[i].Observe(p)
		}
	}
	observe := rec.measure("stability", "Tracker.Observe", len(batches), func(i int) {
		for _, ev := range batches[i] {
			trackers[ev.Resource].Observe(ev.Post)
		}
	})
	res.metrics["stability.observe_ns_per_post"] = observe.perOp / float64(len(batches[0]))

	st := sim.NewState(e.data, 5, e.cfg.seed)
	const snapshotCalls = 1000
	const perSpan = 100 // one span per 100 calls: a single call is shorter than a clock read
	var sink int
	snap := rec.measure("engine", "Engine.Snapshot x100", snapshotCalls/perSpan, func(int) {
		for k := 0; k < perSpan; k++ {
			sink += st.Engine().Snapshot().Posts
		}
	})
	_ = sink
	res.metrics["engine.snapshot_ns"] = snap.perOp / perSpan

	tiny := incentivetag.TinyScale()
	tds, err := incentivetag.Generate(incentivetag.DefaultConfig(tiny.N, tiny.Seed))
	if err != nil {
		return err
	}
	simu := incentivetag.NewSimulation(tds, incentivetag.Options{Omega: tiny.Omega, Seed: tiny.Seed})
	var dpErr, greedyErr error
	dp := rec.call("optimal", "SolveOptimal", func() { _, _, dpErr = simu.SolveOptimal(tiny.Budget) })
	greedy := rec.call("optimal", "SolveGreedy", func() { _, _, greedyErr = simu.SolveGreedy(tiny.Budget) })
	if dpErr != nil {
		return dpErr
	}
	if greedyErr != nil {
		return greedyErr
	}
	res.metrics["optimal.dp_ms"] = float64(dp.Nanoseconds()) / 1e6
	res.metrics["optimal.greedy_ms"] = float64(greedy.Nanoseconds()) / 1e6

	w := e.cfg.log
	fmt.Fprintf(w, "  kernels: Tracker.Observe (map-backed) %.1f ns/post, Engine.Snapshot %.1f ns, NewState %.2f ms\n",
		res.metrics["stability.observe_ns_per_post"], res.metrics["engine.snapshot_ns"], res.metrics["sim.newstate_ms"])
	for _, name := range replayStrategies {
		fmt.Fprintf(w, "    State.Run %-6s %8.3f ms\n", name, res.metrics["sim.run_ms."+name])
	}
	fmt.Fprintf(w, "    RunReference (full-scan oracle) %.2f ms; FP-MU over RR %.3f ms; DP %.2f ms and greedy %.2f ms at n=%d B=%d\n",
		res.metrics["sim.reference_run_ms"], res.metrics["strategy.fpmu_extra_ms"],
		res.metrics["optimal.dp_ms"], res.metrics["optimal.greedy_ms"], tiny.N, tiny.Budget)
	return nil
}
