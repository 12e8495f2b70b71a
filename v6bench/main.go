// Command v6bench is the v6scan benchmark: it generates a workload
// from a seed, runs it through the library for a fixed time, checks
// the output against a reference computed another way, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separately traced run) as the last line of standard output.
//
//	bash v6bench/run.sh --workload census --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Load comes from one process: shards, decode workers and publishers
// stay at two, the CPU count of the VM the benchmark was tuned on, and
// GOMAXPROCS is left as the runtime sets it.
const (
	shards        = 2
	decodeWorkers = 2
	publishers    = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// run is one invocation's context.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for generated inputs, removed at exit
	traces   string // directory the traced run writes its spans to
}

// errMismatch marks a failed output check.
var errMismatch = errors.New("output check failed")

func main() {
	var (
		workload = flag.String("workload", "", "census, churn or live-ids")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	workloads := map[string]func(*run) (*result, error){
		"census":   runCensus,
		"churn":    runChurn,
		"live-ids": runLiveIDS,
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "v6bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	base := filepath.Join(".bench_build", "v6bench")
	work, err := os.MkdirTemp(mkdirAll(filepath.Join(base, "work")), *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "v6bench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		work:     work,
		traces:   mkdirAll(filepath.Join(base, "traces")),
	}
	fmt.Printf("v6bench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d\n",
		r.workload, r.seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := fn(r)
	os.RemoveAll(work)
	if r.trace {
		fmt.Println("not measured: bus.publish.blocked_share — the backpressure wait happens inside bus.Publish, " +
			"which PublishSink calls directly; the bus.publish span's self time includes it")
	}
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintln(os.Stderr, "v6bench:", err)
		os.Exit(1)
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "v6bench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if err != nil {
		fmt.Fprintln(os.Stderr, "v6bench:", err)
		os.Exit(1)
	}
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "v6bench:", err)
		os.Exit(1)
	}
	return dir
}

// minPasses is the fewest passes a run makes, so that a pass longer
// than a third of the budget (churn's) still gets a median of three
// rather than the mean of two.
const minPasses = 3

// passes runs fn until the measured time is used up, at least
// minPasses times; a later pass is not started when it would end well
// past the budget.
func passes(budget time.Duration, fn func(i int) (time.Duration, error)) error {
	var used, last time.Duration
	for i := 0; i < minPasses || used+last <= budget+budget/4; i++ {
		d, err := fn(i)
		if err != nil {
			return err
		}
		used += d
		last = d
	}
	return nil
}
