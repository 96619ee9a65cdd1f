// Command perfbench is the repository benchmark. It runs one workload of the
// placement flow, checks the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sa_exact_g64 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json from an
// untraced production run; with --trace 1 it runs the workload untraced and
// then traced, checks that the two agree, and reports the per-layer metrics.
// It drives the program only through public calls and times them from here;
// it changes no program code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// params are one invocation's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // temporary files, inside the checkout
}

// report collects one invocation's metrics and check outcomes.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	facts     map[string]any
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, facts: map[string]any{}}
}

// op records one attempted operation; it failed when problems is non-empty.
func (r *report) op(problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.problems = append(r.problems, problems...)
	}
}

// invalid records a run-level check failure (trace fidelity, closure).
func (r *report) invalid(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload runs setup and the measured run, filling r. Each returns an error
// only when it cannot run at all; failed checks go into r.
type workload func(p params, tr *tracer, r *report) error

var workloads = map[string]workload{
	"sa_exact_g64":    saExactG64,
	"sa_default_g128": saDefaultG128,
	"signoff_g64":     signoffG64,
	"service_jobs":    serviceJobs,
}

// rssSampler reads the process's resident set size every rssEvery while a
// workload runs. Peak RSS depends on where garbage collections happen to
// fall (a quarter of its value, run to run, on signoff_g64), so the
// benchmark reports the median sample.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mb    []float64
	err   error
}

const rssEvery = 50 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize()) / (1 << 20)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			raw, err := os.ReadFile("/proc/self/statm")
			var size, resident float64
			if err == nil {
				_, err = fmt.Sscan(string(raw), &size, &resident)
			}
			if err != nil {
				s.err = fmt.Errorf("reading resident memory: %w", err)
				return
			}
			s.mb = append(s.mb, resident*page)
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median sample in MB; a workload error
// passed in takes precedence.
func (s *rssSampler) stop(werr error) (float64, error) {
	close(s.stopc)
	<-s.done
	if werr != nil {
		return 0, werr
	}
	return median(s.mb), s.err
}

// setupReps is how often a workload repeats its set-up; setup_s is the median.
const setupReps = 3

// timedSetup runs f setupReps times and returns the median duration in
// seconds.
func timedSetup(f func(rep int) error) (float64, error) {
	var ds []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := f(rep); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var p params
	var traceFlag int
	var root string
	flag.StringVar(&p.workload, "workload", "", "workload name")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&root, "root", ".", "checkout root holding BENCHMARK.json")
	flag.Parse()
	p.trace = traceFlag == 1
	if err := run(p, root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(p params, root string) error {
	wl, ok := workloads[p.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", p.workload, names)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	p.workdir = filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		return err
	}

	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	r := newReport()
	rss := sampleRSS()
	err = wl(p, tr, r)
	if r.e2e["rss_mb"], err = rss.stop(err); err != nil {
		return err
	}
	if p.trace {
		r.layer["bench.fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
		path := filepath.Join(p.workdir, fmt.Sprintf("spans-%s-%d.jsonl", p.workload, p.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}

	res := result{Correct: r.failed == 0 && len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	specs, values := bf.EndToEnd, r.e2e
	if p.trace {
		specs, values = bf.PerLayer, r.layer
	}
	known := map[string]bool{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		known[m.Name] = true
	}
	for _, vs := range []map[string]float64{r.e2e, r.layer} {
		for name := range vs {
			if !known[name] {
				return fmt.Errorf("workload reported %q, which BENCHMARK.json does not list", name)
			}
		}
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok && !p.trace {
			return fmt.Errorf("workload did not measure end-to-end metric %q", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload attempted no operation")
	}

	for _, msg := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.facts["workload"] = p.workload
	r.facts["seed"] = p.seed
	r.facts["seconds"] = p.seconds
	r.facts["trace"] = p.trace
	r.facts["nproc"] = runtime.NumCPU()
	r.facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.facts["go"] = runtime.Version()
	facts, err := json.Marshal(r.facts)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n%s\n", facts, out)
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}
