// Command dlisbench is the DLIS benchmark. One run drives one workload
// against a freshly built server in this process and prints a report,
// then one JSON result line:
//
//	bash dlisbench/run.sh --workload wire-tenants --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics BENCHMARK.json
// declares; with --trace 1 it holds the per-layer metrics, from a run
// that also times each layer's public functions and records spans.
// README.md in this directory maps layers to metrics and workloads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/tensor"
)

// setupRuns is how many set-ups one run measures for setup_s, each in a
// fresh process so that every one tunes into a cold cache.
const setupRuns = 5

// Paths inside the checkout, from its root: the benchmark declaration,
// and the directory for each run's scratch files.
const (
	benchConfigPath = "BENCHMARK.json"
	workRoot        = ".bench_build"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dlisbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	setupOnly bool
	refsTo    string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("dlisbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name, as declared in BENCHMARK.json")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 0, "length of the timed window (0: run_seconds from BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set the server up once, print its set-up time and exit")
	fs.StringVar(&o.refsTo, "references-to", "", "compute the output-check references into this file and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	return o, nil
}

func realMain(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	cfg, err := loadBenchConfig(benchConfigPath)
	if err != nil {
		return err
	}
	declared := false
	for _, w := range cfg.Workloads {
		declared = declared || w.Name == o.workload
	}
	if !declared {
		return fmt.Errorf("workload %q is not declared in %s", o.workload, benchConfigPath)
	}
	if o.seconds == 0 {
		o.seconds = cfg.RunSeconds
	}
	if o.seconds < 2 {
		return fmt.Errorf("--seconds %d: each of the two load phases needs at least a second", o.seconds)
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(workRoot, "run-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	// A fresh tuner cache per process: set-up pays cold AutoAlgo tuning.
	cache, err := dlis.OpenTunerCache(filepath.Join(workDir, "tuner"))
	if err != nil {
		return err
	}
	dlis.SetTunerCache(cache)

	w, err := newWorkload(o.workload, nproc)
	if err != nil {
		return err
	}
	images := imagePool(o.seed, imagePoolSize)

	if o.refsTo != "" {
		return writeReferences(o.refsTo, w.stacks, images)
	}
	if o.setupOnly {
		sys, d, err := setUp(w, workDir, images, nil)
		if err != nil {
			return err
		}
		sys.close()
		fmt.Fprintf(stdout, "setup_s %.9f\n", d.Seconds())
		return nil
	}

	report := bufio.NewWriter(stdout)
	defer report.Flush()
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	// Earlier set-ups run in child processes; this process's own set-up
	// is the last sample, traced on a traced run.
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		s, err := childSetup(o)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	sys, setupDur, err := setUp(w, workDir, images, tr)
	if err != nil {
		return err
	}
	defer sys.close()
	rssSetup, err := peakRSSMB()
	if err != nil {
		return err
	}
	refsPath := filepath.Join(workDir, "references.json")
	if err := runChild(o, "--references-to", refsPath); err != nil {
		return err
	}
	chk, err := readChecker(refsPath, w.stacks, len(images))
	if err != nil {
		return err
	}
	r := &run{w: w, seed: o.seed, images: images, sys: sys}

	prov := newProvenance(o, w, nproc)
	provJSON, _ := json.Marshal(prov) // a struct of plain fields always marshals
	fmt.Fprintf(report, "provenance %s\n", provJSON)
	fmt.Fprintf(report, "VmHWM %.1f MB after set-up\n", rssSetup)
	for _, s := range w.stacks {
		if ref := chk.refs[s.name]; ref.Err != "" {
			fmt.Fprintf(report, "reference: %s does not compile: %s\n", s.name, ref.Err)
		}
	}
	for _, name := range sys.srv.Endpoints() {
		st, err := sys.srv.EndpointStats(name)
		if err != nil {
			return err
		}
		for _, v := range st.Variants {
			fmt.Fprintf(report, "endpoint %s variant %s: accuracy %.2f%%, measured %.3f ms/image\n",
				name, v.Name, v.Accuracy, 1000*v.MeasuredSeconds)
		}
	}

	var layers *resultSet
	if tr != nil {
		layers = newResultSet()
		if err := runProbes(tr, layers, images, report); err != nil {
			return err
		}
	}
	// A traced run measures two windows, untraced then traced, of half
	// the run length each, so that it takes about as long as an
	// untraced run.
	window := time.Duration(o.seconds) * time.Second
	if tr != nil {
		window /= 2
	}
	plain, err := runWindow(r, chk, nil, window)
	if err != nil {
		return err
	}
	e2e := newResultSet()
	untracedSetups := append([]float64(nil), setups...)
	if tr == nil {
		untracedSetups = append(untracedSetups, setupDur.Seconds())
	}
	if err := endToEnd(e2e, w, plain, untracedSetups); err != nil {
		return err
	}
	fmt.Fprintf(report, "== %s end to end, tracing off (%v window) ==\n", w.name, window)
	plain.printCounts(report)
	e2e.print(report)
	chk.printSummary(report)
	attempted, failures := plain.counts()
	correct := plain.correct()

	if tr != nil {
		traced, err := runWindow(r, chk, tr, window)
		if err != nil {
			return err
		}
		te2e := newResultSet()
		if err := endToEnd(te2e, w, traced, []float64{setupDur.Seconds()}); err != nil {
			return err
		}
		fmt.Fprintf(report, "== %s end to end, tracing on ==\n", w.name)
		traced.printCounts(report)
		te2e.print(report)
		fmt.Fprintln(report, "== tracing overhead (traced − untraced) ==")
		for _, name := range e2e.order {
			a, b := e2e.m[name], te2e.m[name]
			fmt.Fprintf(report, "overhead.%-35s %+14.6g %s\n", name, b.Value-a.Value, a.Unit)
		}
		extra := newResultSet()
		layerMetrics(layers, extra, w, sys, traced)
		fmt.Fprintln(report, "== per layer (traced window and probes) ==")
		layers.print(report)
		fmt.Fprintln(report, "== workload-specific layer figures ==")
		extra.print(report)
		fmt.Fprintln(report, "== self time per layer, all spans ==")
		self := selfTimes(tr.snapshot())
		names := make([]string, 0, len(self))
		for l := range self {
			names = append(names, l)
		}
		sort.Strings(names)
		for _, l := range names {
			fmt.Fprintf(report, "selftime_ms.%-32s %14.3f\n", l, ms(self[l]))
		}
		spanPath := filepath.Join(workRoot, "out", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
			return err
		}
		if err := tr.write(spanPath); err != nil {
			return err
		}
		fmt.Fprintf(report, "spans written to %s (%d spans)\n", spanPath, len(tr.snapshot()))
		a2, f2 := traced.counts()
		attempted, failures = attempted+a2, failures+f2
		correct = correct && traced.correct()
	}

	defs, res := cfg.EndToEnd, e2e
	if tr != nil {
		defs, res = cfg.PerLayer, layers
	}
	metrics, err := res.selectDeclared(defs)
	if err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{Correct: correct, Attempted: attempted, Failed: failures, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(report, "%s\n", line)
	return nil
}

// childSetup measures one set-up in a fresh process running this
// binary with --setup-only.
func childSetup(o options) (float64, error) {
	var out bytes.Buffer
	if err := runChildOutput(o, &out, "--setup-only"); err != nil {
		return 0, err
	}
	f := strings.Fields(out.String())
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("set-up child printed %q", out.String())
	}
	return strconv.ParseFloat(f[1], 64)
}

func runChild(o options, args ...string) error { return runChildOutput(o, io.Discard, args...) }

// runChildOutput runs this binary for the same workload and seed with
// args added, and waits for it to exit.
func runChildOutput(o options, stdout io.Writer, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10)}, args...)...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return nil
}

// runProbes runs every per-layer probe: core set-up and plan execution
// for each mini config, the Threads=2 plan, the kernels and the codec.
func runProbes(tr *tracer, res *resultSet, images []*tensor.Tensor, report io.Writer) error {
	all, err := miniStacks()
	if err != nil {
		return err
	}
	probeStacks(tr, res, all, images, report)
	byName := map[string]stackDef{}
	for _, s := range all {
		byName[s.name] = s
	}
	if err := probeParallel(tr, res, byName["mini-vgg.plain"], images); err != nil {
		return err
	}
	if err := probeKernels(tr, res, byName["mini-vgg.plain"], byName["mini-vgg.wp"], report); err != nil {
		return err
	}
	return probeCodec(tr, res, images)
}

// provenance stamps a result with what it was measured on and how.
type provenance struct {
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Seconds        int               `json:"seconds"`
	Trace          int               `json:"trace"`
	NProc          int               `json:"nproc"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	GoVersion      string            `json:"go_version"`
	CPUModel       string            `json:"cpu_model"`
	Commit         string            `json:"commit"`
	Load           map[string]string `json:"load"`
	LatencyLimitMS float64           `json:"latency_limit_ms"`
	Connections    int               `json:"connections"`
}

func newProvenance(o options, w *workload, nproc int) provenance {
	p := provenance{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(), Load: map[string]string{},
		LatencyLimitMS: ms(w.limit)}
	for ph, name := range phaseNames {
		p.Load[name] = fmt.Sprintf("%g %s", w.load[ph], w.loadUnit)
	}
	if w.wire {
		p.Load["http_stream"] = fmt.Sprintf("%g req/s, inside the above", w.httpRate)
		p.Connections = 2 // one DLW2 session, one keep-alive HTTP connection
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// peakRSSMB reads the process's VmHWM.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
