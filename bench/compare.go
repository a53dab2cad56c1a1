package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json, the benchmark's declaration: its
// workloads, its metrics and, per end-to-end metric, the share of the
// baseline's median by which it may get worse before a change counts as
// a regression.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords loads the end-to-end runs of a results.jsonl file, grouped
// by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace || !r.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile of
// xs over their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) — the driver's measure of steadiness.
// Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := medianF(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the metric's bound and a verdict: worse
// (beyond the bound), unresolved (either side's spread is wider than the
// bound, so the medians cannot tell) or ok. It reports whether any metric
// came out worse.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	spec, err := readBenchmarkFile(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %7s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "a iqr", "b iqr", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %7.3f %7s %7s  missing (a has %d runs, b has %d)\n", wl.Name, m.Name, "-", "-", "-", m.Bound, "-", "-", len(av), len(bv))
				continue
			}
			am, bm := medianF(append([]float64(nil), av...)), medianF(append([]float64(nil), bv...))
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			as, bs := quartileSpread(av), quartileSpread(bv)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "worse"
				anyWorse = true
			case as > m.Bound || bs > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %+8.3f %7.3f %7.3f %7.3f  %s (%d, %d runs)\n",
				wl.Name, m.Name, am, bm, worse, m.Bound, as, bs, verdict, len(av), len(bv))
		}
	}
	return anyWorse, nil
}
