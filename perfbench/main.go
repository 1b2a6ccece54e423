// Command perfbench is the repository's benchmark: it runs one workload
// (stock or traffic) against the current code for a fixed time,
// checks every output, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, timed without tracing;
// with --trace 1 a traced run times calls into each layer's public functions
// and reports the per-layer ones. README.md in this directory defines every
// metric, why each workload exists, and which end-to-end metric each layer
// metric should move.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload stock --seed 1 --seconds 55 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workDir holds everything a run writes (state directories, the span file),
// relative to the directory the benchmark runs from.
const workDir = ".bench_build"

// Units.
const (
	unitMS    = "ms"
	unitS     = "s"
	unitRate  = "1/s"
	unitRatio = "ratio"
	unitMB    = "MB"
	unitCount = "count"
	unitBytes = "B"
	unitPct   = "%"
	unitGF    = "GFLOP/s"
)

// params are the command-line settings of one run.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload to run: stock or traffic")
	flag.Uint64Var(&p.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&p.seconds, "seconds", 55, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	p.trace = trace == 1
	if (trace != 0 && trace != 1) || p.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	rep, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(p params) (*report, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{}
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	w, ok := closedWorkloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want stock or traffic)", p.workload)
	}
	if err := runClosed(w, p, tr, rep); err != nil {
		return nil, err
	}
	if tr != nil {
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", p.workload, p.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	return rep, nil
}

// checks counts operations attempted and operations that failed, either with
// an error or by failing a correctness check.
type checks struct {
	attempted int
	failed    int
}

// op records one attempted operation; err is its error or failed check.
func (c *checks) op(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
		}
	}
}

// metric is one reported value; n is the number of samples behind it (0 for
// a value that is not a sample statistic).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report is what one run prints.
type report struct {
	checks
	metrics []metric
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

// print writes a readable table, then the JSON result as the last line.
func (r *report) print(w io.Writer) error {
	sort.SliceStable(r.metrics, func(a, b int) bool { return r.metrics[a].name < r.metrics[b].name })
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value (%v)", m.name, m.value)
		}
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(w, "%-32s %14.4f %-8s %s\n", m.name, m.value, m.unit, samples)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", r.attempted, r.failed)
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// memDelta measures heap bytes allocated between two points.
type memDelta struct{ start uint64 }

func startMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc}
}

func (m memDelta) mb() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-m.start) / (1 << 20)
}

// mallocs reports the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// stateDir makes a fresh directory for one set-up's durable state.
func stateDir() (dir string, cleanup func(), err error) {
	dir, err = os.MkdirTemp(workDir, "state-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}
