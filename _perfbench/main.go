// Command perfbench is the repository's same-host benchmark. It runs the
// three subsystems of the fleet computing system (fleet simulation,
// on-vehicle perception and the telemetry store) as seeded stages against
// the sov packages through their public functions, checks every output,
// and prints one JSON result line:
//
//	perfbench --workload fleet|perception|telemetry --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every workload runs all three stages, taking turns op by op, so every
// run reports every metric; the workload names the stage that gets about
// half of the measured time, while the other two get a quarter each.
// Each stage turns its share into an operation count before timing
// starts (whole telemetry rounds and perception clips; at least 100
// epochs on the fleet workload), so runs of one seed all do the same
// work. A change to one layer should move the metrics of the stage that
// uses it, most tightly on that stage's own workload, and leave the other
// stages' metrics unchanged on every workload.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the stages run one after the other, each
// in two halves: the first runs untraced, the second records spans (and,
// on fleet, a CPU profile), and the result carries the per-layer metrics
// plus trace.overhead_frac, the traced halves' slowdown against the
// untraced ones. Spans, the profile and the host fingerprint are written
// under --out when the run ends.
//
// Every stage runs with parallel.SetWorkers(2) and generates all of its
// inputs from --seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sov/internal/parallel"
)

// benchWorkers is the fan-out width every stage runs at: the benchmark
// host has two CPUs, so the benchmark starts no more parallelism than that.
const benchWorkers = 2

// setupReps is how many times each run builds the whole system before
// measuring; setup_s is the median of these builds.
const setupReps = 3

// focusShare is the share of --seconds the workload's own stage measures;
// the other two stages split the rest evenly.
const focusShare = 0.5

// options are the command-line arguments shared by every stage.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // trace output directory
	work     string // scratch directory for stores, removed at exit
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what the stages of one run report: their operation counts,
// the check failures they found, and the metrics for the requested mode.
type outcome struct {
	attempted int64
	failed    int64
	failures  []string // first few failure descriptions, for stderr
	metrics   map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed or mismatching operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// env is what the stages of one run share besides the outcome.
type env struct {
	rt *runtimeStats
	hp *heapPeak
	// The fields below are filled by traced halves only.
	sp        *spans
	overhead  []float64 // each stage's traced-half slowdown
	tiles     int64     // parallel tiles run in traced halves
	poolTiles int64     // of which the worker pool ran
	summary   map[string]any
}

// stage is one subsystem of the benchmark.
type stage interface {
	// setup builds the stage from scratch, as a fresh process would;
	// it is called setupReps times and the last build is measured.
	setup(o options, oc *outcome, rep int) (time.Duration, error)
	// ops is how many operations the untraced measurement runs for
	// about dur of host time on the benchmark host. The count is fixed
	// before timing starts, so every run of a seed does the same work
	// and only the host's speed varies. focus marks the workload's stage.
	ops(dur time.Duration, focus bool) int
	// run measures the stage's next n operations, checking every output.
	run(oc *outcome, e *env, n int) error
	// finish checks what can only be checked at the end and records the
	// stage's end-to-end metrics.
	finish(o options, oc *outcome, e *env) error
	// traced measures an untraced and then a traced half of about
	// dur/2 each and records the stage's per-layer metrics.
	traced(o options, oc *outcome, e *env, dur time.Duration) error
}

// stageNames are the stages in the order every run executes them; each
// is also the name of the workload that focuses on it.
var stageNames = []string{"fleet", "perception", "telemetry"}

func newStage(name string) stage {
	switch name {
	case "fleet":
		return &fleetStage{}
	case "perception":
		return &percStage{}
	default:
		return &telStage{}
	}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: fleet, perception or telemetry")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 records spans and per-layer metrics instead of end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and scratch stores")
	flag.Parse()

	known := false
	for _, s := range stageNames {
		known = known || s == *name
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	parallel.SetWorkers(benchWorkers)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	opts := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, work: work}
	host := hostFingerprint(opts)
	oc, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range oc.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if oc.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operations attempted")
		return 1
	}
	for k, m := range oc.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", k)
			return 1
		}
	}
	hb, err := json.Marshal(host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("host %s\n", hb)
	line, err := json.Marshal(result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   oc.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload sets the whole system up setupReps times, then measures
// each stage in turn for its share of the run.
func runWorkload(o options) (*outcome, error) {
	focus := o.workload
	oc := &outcome{}
	rt := newRuntimeStats()
	e := &env{rt: rt, hp: &heapPeak{rt: rt}, summary: map[string]any{}}
	if o.trace {
		e.sp = &spans{}
	}
	stages := make([]stage, len(stageNames))
	for i, n := range stageNames {
		stages[i] = newStage(n)
	}

	setups := make([]float64, setupReps)
	for rep := range setups {
		for _, s := range stages {
			d, err := s.setup(o, oc, rep)
			if err != nil {
				return nil, err
			}
			setups[rep] += d.Seconds()
		}
	}

	total := time.Duration(o.seconds * float64(time.Second))
	durs := make([]time.Duration, len(stages))
	for i := range stages {
		share := (1 - focusShare) / float64(len(stages)-1)
		if stageNames[i] == focus {
			share = focusShare
		}
		durs[i] = time.Duration(share * float64(total))
	}
	if o.trace {
		for i, s := range stages {
			if err := s.traced(o, oc, e, durs[i]); err != nil {
				return nil, err
			}
		}
	} else {
		// The stages take turns one operation at a time, the one least
		// far through its count going next, so each stage samples the
		// whole run: where a shared host changes speed every few
		// seconds, every stage sees the same mix of fast and slow spells.
		ops := make([]int, len(stages))
		done := make([]int, len(stages))
		for i, s := range stages {
			ops[i] = s.ops(durs[i], stageNames[i] == focus)
		}
		for {
			next := -1
			for i := range stages {
				if done[i] < ops[i] && (next < 0 || done[i]*ops[next] < done[next]*ops[i]) {
					next = i
				}
			}
			if next < 0 {
				break
			}
			if err := stages[next].run(oc, e, 1); err != nil {
				return nil, err
			}
			done[next]++
		}
		for _, s := range stages {
			if err := s.finish(o, oc, e); err != nil {
				return nil, err
			}
		}
	}

	if !o.trace {
		oc.set("setup_s", "s", median(setups))
		oc.set("heap_peak_mb", "MB", e.hp.mb())
		return oc, nil
	}
	oc.set("parallel.pool_tile_frac", "fraction", ratio(float64(e.poolTiles), float64(e.tiles)))
	oc.set("fail_frac", "fraction", float64(oc.failed)/float64(oc.attempted))
	oc.set("trace.overhead_frac", "fraction", mean(e.overhead))
	e.summary["setup_s"] = setups
	if err := writeTrace(o, e.sp, e.summary); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return oc, nil
}

// hostInfo is the fingerprint recorded with every result, so numbers from
// different machines are never compared by accident.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
}

func hostFingerprint(o options) hostInfo {
	return hostInfo{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    parallel.Workers(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace writes the host fingerprint, the spans and any extra summary
// of a traced run to <out>/<workload>-seed<N>.spans.jsonl.
func writeTrace(o options, sp *spans, summary any) error {
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := errors.Join(
		enc.Encode(map[string]any{"host": hostFingerprint(o)}),
		enc.Encode(map[string]any{"summary": summary}),
		sp.encode(enc),
	)
	return errors.Join(werr, f.Close())
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// clockZero anchors now: every measurement reads the monotonic clock as an
// offset from process start, so spans carry small numbers.
var clockZero = time.Now()

func now() time.Duration { return time.Since(clockZero) }
