// Command perfbench is SAAD's benchmark: it drives the real pipeline from
// the monitored application's side — tracker calls on generator goroutines
// — through the transport to the analyzer's verdict, times every layer from
// outside, checks the verdicts against a single-detector replay, and prints
// one JSON result line. README.md describes the workloads and metrics.
//
//	perfbench --workload tcp-steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a --trace 0 run sets up; it reports the
// median and runs on the last.
const setupRepeats = 5

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "1 runs an untraced and a traced pass and prints per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*wl)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traced == 1, spansDir: *spans}
	detail, res, err := runBenchmark(w, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, f := range detail.Failed {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// result is the summary line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed before the result: the environment, the stream
// fingerprint, and every metric including the detection-quality counts.
type detail struct {
	Workload    string                 `json:"workload"`
	Env         env                    `json:"env"`
	Fingerprint string                 `json:"fingerprint"`
	Fault       string                 `json:"fault"`
	Tasks       uint64                 `json:"tasks"`
	Failed      []string               `json:"failed_checks,omitempty"`
	Metrics     map[string]metricValue `json:"all_metrics"`
}

type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	OfferedSPS int    `json:"offered_tasks_per_s"`
}

func environment(w *workload, opts options) env {
	e := env{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: os.Getenv("PERFBENCH_COMMIT"), Seed: opts.seed, Seconds: opts.seconds,
		OfferedSPS: int(w.rate),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	return e
}

// pass is one set-up, timed run and check.
type pass struct {
	h      *harness
	r      *passResult
	ref    *reference
	setupS float64
	fails  []string
}

// onePass sets up (timed), runs and checks one pass; ref, when given, is
// the replay of the same seed from an earlier pass.
func onePass(w *workload, opts options, traced bool, ref *reference) (*pass, error) {
	runtime.GC()
	t0 := time.Now()
	h, err := newHarness(w, opts, traced)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	p := &pass{h: h, setupS: time.Since(t0).Seconds()}
	runtime.GC()
	if p.r, err = h.run(); err != nil {
		h.close()
		return nil, err
	}
	if ref == nil {
		ref = h.reference()
	}
	p.ref = ref
	p.fails = h.check(p.r, ref)
	return p, nil
}

func runBenchmark(w *workload, opts options) (detail, result, error) {
	d := detail{Workload: w.name, Env: environment(w, opts)}
	res := result{Metrics: map[string]metricValue{}}
	var setups []float64
	for i := 0; i < setupRepeats-1 && !opts.trace; i++ {
		runtime.GC()
		t0 := time.Now()
		h, err := newHarness(w, opts, false)
		if err != nil {
			return d, res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		h.close()
	}
	p, err := onePass(w, opts, false, nil)
	if err != nil {
		return d, res, err
	}
	setups = append(setups, p.setupS)
	fails := p.fails
	all := p.h.report(p.r)
	all.set("setup_s", "s", median(setups))
	res.Attempted = p.r.ended
	res.Failed = p.r.clientDropped + p.r.chanDropped + p.r.shed
	d.Fingerprint = fmt.Sprintf("%016x", p.ref.fingerprint)
	d.Fault = fmt.Sprintf("host %d, stage %d (%s)", p.h.fault.host, p.h.fault.stage, p.h.cat.names[p.h.fault.stage])
	d.Tasks = p.ref.tasks

	names := endToEnd
	if opts.trace {
		names = perLayer
		tp, err := onePass(w, opts, true, p.ref)
		if err != nil {
			return d, res, fmt.Errorf("traced pass: %w", err)
		}
		for _, f := range tp.fails {
			fails = append(fails, "traced pass: "+f)
		}
		traced := tp.h.report(tp.r)
		for name := range tracedOnly {
			delete(all.values, name)
			if v, ok := traced.values[name]; ok {
				all.values[name] = v
			}
			all.errs[name] = traced.errs[name]
		}
		all.set("trace.overhead", "ratio", traced.values["cpu_us_per_task"].Value/all.values["cpu_us_per_task"].Value-1)
		res.Attempted += tp.r.ended
		res.Failed += tp.r.clientDropped + tp.r.chanDropped + tp.r.shed
		name := fmt.Sprintf("%s-seed%d.jsonl", w.name, opts.seed)
		if err := writeSpans(opts.spansDir, name, tp.h.allSpans()); err != nil {
			return d, res, err
		}
	}
	for _, name := range names {
		v, ok := all.values[name]
		if !ok {
			why := all.errs[name]
			if why == "" {
				why = name + " was not measured"
			}
			fails = append(fails, "metrics: "+why)
			continue
		}
		res.Metrics[name] = v
	}
	d.Metrics = all.values
	d.Failed = fails
	res.Correct = len(fails) == 0
	return d, res, nil
}
