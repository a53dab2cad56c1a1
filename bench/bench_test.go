package main

import (
	"bytes"
	"io"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// tiny runs every workload's real code — servers, gates, ladders — at a
// size that fits a unit test.
var tiny = scale{
	n:             150,
	warmOps:       10,
	preloadPosts:  600,
	snapshotEvery: 4000,
	maxResident:   40,
	budget:        300,
	every:         50,
	ladderBatches: 5,
	ladderQueries: 60,
	ladderOps:     300,
	setups:        1,
}

const specPath = "../BENCHMARK.json"

func tinyConfig(t *testing.T, workload string, traced bool) runConfig {
	t.Helper()
	if runtime.GOMAXPROCS(0) < clients {
		t.Skipf("needs GOMAXPROCS >= %d", clients)
	}
	return runConfig{workload: workload, seed: 3, seconds: 0.6, traced: traced, outDir: t.TempDir(), sc: tiny, log: io.Discard}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsEmitDeclaredMetrics runs every workload end to end and
// traced with all correctness gates on, and holds what it emits to what
// spec.go declares: exactly those names, every one with a unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			cfg := tinyConfig(t, w, traced)
			line, res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			// Operations the fixed open-loop schedule could not send count as
			// failed; on a slowed build (-race) some always do, so they are
			// logged and only the gates decide.
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w, traced, line.Correct, line.Attempted)
			}
			t.Logf("%s traced=%v: attempted %d, failed %d", w, traced, line.Attempted, line.Failed)
			want := declared(traced)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", w, traced, m.name)
				}
				if got.Unit != m.unit || got.Unit == "" {
					t.Errorf("%s traced=%v: %s has unit %q, declared %q", w, traced, m.name, got.Unit, m.unit)
				}
			}
			if err := appendRecord(cfg, line, res); err != nil {
				t.Fatal(err)
			}
			if !traced {
				// A result compared with itself is all ok.
				results := filepath.Join(cfg.outDir, "results.jsonl")
				var out bytes.Buffer
				worse, err := compareFiles(&out, specPath, results, results)
				if err != nil || worse {
					t.Fatalf("%s: self-compare: worse=%v err=%v\n%s", w, worse, err, out.String())
				}
				if n := strings.Count(out.String(), " ok "); n != len(endToEnd) {
					t.Errorf("%s: self-compare has %d ok rows, want %d:\n%s", w, n, len(endToEnd), out.String())
				}
			}
		}
	}
}

// TestBrokenGateFails corrupts one expected answer per workload and
// demands that the run reports no number.
func TestBrokenGateFails(t *testing.T) {
	for _, w := range workloadNames {
		cfg := tinyConfig(t, w, false)
		cfg.sc.corruptGate = true
		if _, _, err := run(cfg); err == nil || !strings.Contains(err.Error(), "gate") {
			t.Errorf("%s: a falsified expected answer got through its gate (err = %v)", w, err)
		}
	}
}

// TestBenchmarkFileMatchesSpec holds BENCHMARK.json to spec.go and to the
// limits of its schema.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	b, err := readBenchmarkFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("counts out of range: %d workloads, %d end-to-end, %d per-layer", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, spec.go has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, spec.go has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d is %s [%s], spec.go has %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, spec.go has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d is %s [%s], spec.go has %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for w := range openRate {
		if _, ok := workloads[w]; !ok {
			t.Errorf("open rate for unknown workload %s", w)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	got := quartileSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}
