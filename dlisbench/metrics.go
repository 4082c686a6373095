package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
)

// benchConfig is BENCHMARK.json: how to run the benchmark, its
// workloads, and every metric it emits, each declared once.
type benchConfig struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef declares one metric. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may worsen.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// parseBenchConfig decodes BENCHMARK.json strictly: unknown fields and
// trailing data are errors.
func parseBenchConfig(data []byte) (*benchConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c benchConfig
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("BENCHMARK.json: trailing data after the object")
	}
	return &c, nil
}

func loadBenchConfig(path string) (*benchConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := parseBenchConfig(data)
	if err != nil {
		return nil, err
	}
	return c, c.Validate()
}

// Validate checks names, units and bounds, and rejects a name used
// twice anywhere in the file.
func (c *benchConfig) Validate() error {
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	checkName := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("invalid name: %q", name)
		}
		if seen[name] {
			return fmt.Errorf("duplicate name: %s", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range c.Workloads {
		if err := checkName(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, m := range append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...) {
		if err := checkName(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric '%s' has an invalid unit: %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric '%s' has an invalid better: %q", m.Name, m.Better)
		}
		endToEnd := i < len(c.EndToEnd)
		switch {
		case endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			return fmt.Errorf("metric '%s' needs a bound in (0, 0.25]", m.Name)
		case !endToEnd && m.Bound != nil:
			return fmt.Errorf("per-layer metric '%s' must not carry a bound", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = endToEnd && m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end must declare setup_s in s, lower is better")
	}
	return nil
}

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64
	Unit  string
	N     int    // samples behind the value; 0 for a single measurement
	Note  string // how the value was taken, when that is not obvious
}

// resultSet collects a run's metrics in emission order. A name may be
// set once; setting it again is a programming error.
type resultSet struct {
	order []string
	m     map[string]metric
}

func newResultSet() *resultSet { return &resultSet{m: map[string]metric{}} }

func (r *resultSet) put(name, unit string, v float64, n int, note string) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metric name %q is invalid", name))
	}
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("metric %q set twice", name))
	}
	r.order = append(r.order, name)
	r.m[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

// print writes every metric as one report line.
func (r *resultSet) print(w io.Writer) {
	for _, name := range r.order {
		m := r.m[name]
		line := fmt.Sprintf("%-44s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// selectDeclared returns the declared metrics in the result line's shape. A
// declared metric that was not measured, carries another unit or is not
// a finite number is an error: the result line must hold every one.
func (r *resultSet) selectDeclared(defs []metricDef) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		m, ok := r.m[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return out, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}
