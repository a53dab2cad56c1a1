// Command bench is the repository's one end-to-end benchmark: a fixed-seed
// corpus driven through four named workloads, each measured end to end
// with tracing off and, in a separate traced run, attributed to layers by
// a ladder of calls into each layer's public entry point. README.md has
// the workloads, the metrics and how to compare two sets of runs.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string // traces, the results log and scratch state live here
	sc       scale
	log      io.Writer // the human-readable report
}

// result is what a workload measured.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int       // how many samples stand behind a timing
	series    map[string][]float64 // per-window values behind the windowed metrics
}

func newResult() result {
	return result{metrics: map[string]float64{}, samples: map[string]int{}, series: map[string][]float64{}}
}

// scratch makes a fresh directory for a run's durable state.
func (c runConfig) scratch(name string) (string, error) {
	return os.MkdirTemp(c.outDir, name+"-*")
}

var workloads = map[string]func(runConfig) (result, error){
	wIngestHTTP:   runIngestHTTP,
	wQueryGateway: runQueryGateway,
	wMixedNode:    runMixedNode,
	wReplayFig6:   runReplayFig6,
}

// metricValue is one reported metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run in <out>/results.jsonl, the input of -compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Time     string  `json:"time"`
	Go       string  `json:"go"`
	OS       string  `json:"os"`
	Arch     string  `json:"arch"`
	NumCPU   int     `json:"nproc"`
	MaxProcs int     `json:"gomaxprocs"`
	resultLine
	Samples map[string]int       `json:"samples"`
	Series  map[string][]float64 `json:"series,omitempty"`
}

// declared returns the metrics a run with the given tracing reports.
func declared(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// finish checks a workload's metrics against the declared set and builds
// the result line: every declared metric present (a layer that did no
// work reads 0 in a traced run), nothing undeclared, and no end-to-end
// metric at zero.
func finish(res result, traced bool) (resultLine, error) {
	line := resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, m := range declared(traced) {
		known[m.name] = true
		v, ok := res.metrics[m.name]
		if !traced && (!ok || v <= 0) {
			return line, fmt.Errorf("end-to-end metric %s missing or zero (%v)", m.name, v)
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for name := range res.metrics {
		if !known[name] {
			return line, fmt.Errorf("workload reported undeclared metric %s", name)
		}
	}
	if line.Attempted < 1 {
		return line, fmt.Errorf("no operation attempted")
	}
	return line, nil
}

func printReport(w io.Writer, cfg runConfig, line resultLine, samples map[string]int) {
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %v: attempted %d failed %d\n", cfg.workload, cfg.seed, cfg.traced, line.Attempted, line.Failed)
	idle := 0
	for _, name := range names {
		m := line.Metrics[name]
		if m.Value == 0 {
			idle++
			continue
		}
		if n, ok := samples[name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s (%d samples)\n", name, m.Value, m.Unit, n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if idle > 0 {
		fmt.Fprintf(w, "  %d metrics of layers that do no work in this workload read 0\n", idle)
	}
}

// run executes one workload and returns its result line; any error —
// a failed correctness gate included — means no number may be reported.
func run(cfg runConfig) (resultLine, result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return resultLine{}, result{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if runtime.GOMAXPROCS(0) < clients {
		return resultLine{}, result{}, fmt.Errorf("GOMAXPROCS %d < %d: the %d clients and the servers would share one thread", runtime.GOMAXPROCS(0), clients, clients)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return resultLine{}, result{}, err
	}
	res, err := fn(cfg)
	if err != nil {
		return resultLine{}, result{}, err
	}
	line, err := finish(res, cfg.traced)
	return line, res, err
}

func appendRecord(cfg runConfig, line resultLine, res result) error {
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.traced,
		Time: time.Now().UTC().Format(time.RFC3339),
		Go:   runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0),
		resultLine: line, Samples: res.samples, Series: res.series,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ingest-http, query-gateway, mixed-node or replay-fig6 (none: all four, end to end and traced)")
		seed     = flag.Int64("seed", 1, "corpus and input seed")
		seconds  = flag.Float64("seconds", 20, "length of the timed phases")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with the per-layer ladder")
		out      = flag.String("out", ".bench_out", "directory for traces, results.jsonl and scratch state")
		compare  = flag.Bool("compare", false, "compare two results.jsonl files given as arguments")
		spec     = flag.String("spec", "BENCHMARK.json", "with -compare: the file holding the regression bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
		outDir: *out, sc: full, log: os.Stdout,
	}
	fmt.Fprintf(cfg.log, "bench: %s %s/%s nproc %d GOMAXPROCS %d, %d clients, seed %d, %gs timed\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, cfg.seed, cfg.seconds)
	if cfg.workload != "" {
		if err := runAndReport(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	// No workload named: the whole suite, each workload end to end and
	// then traced.
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.traced = name, traced
			if err := runAndReport(cfg); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
	}
}

// runAndReport runs one workload, prints its report, logs the run to
// results.jsonl and ends with the result line.
func runAndReport(cfg runConfig) error {
	line, res, err := run(cfg)
	if err != nil {
		return err
	}
	printReport(cfg.log, cfg, line, res.samples)
	if err := appendRecord(cfg, line, res); err != nil {
		return err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", data)
	return err
}
