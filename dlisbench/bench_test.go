package main

import (
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(seq(21), 50); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11, true", v, ok)
	}
	v, used, ok := tailPercentile(seq(500), 99)
	if !ok || used != 98 || v != 490 {
		t.Errorf("tail of 500 samples = %v at p%v (%v); want 490 at p98", v, used, ok)
	}
	s := seq(500)
	if beyond := len(s) - int(used/100*float64(len(s))); beyond < minTail {
		t.Errorf("fallback percentile leaves %d samples beyond it", beyond)
	}
	if _, _, ok := tailPercentile(seq(10), 50); ok {
		t.Error("10 samples support no percentile with 10 beyond it")
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	gen := func(seed uint64) []time.Duration {
		return poissonSchedule(rand.New(rand.NewPCG(seed, 7)), 200, 5*time.Second)
	}
	a, b := gen(1), gen(1)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if slices.Equal(a, gen(2)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Errorf("%d arrivals in 5s at 200/s", n)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= 5*time.Second {
		t.Error("schedule is not increasing inside the window")
	}
}

func bound(v float64) *float64 { return &v }

func validConfig() benchConfig {
	return benchConfig{
		RunSeconds: 10,
		Workloads:  []workloadDef{{Name: "a", Why: "one"}, {Name: "b", Why: "two"}},
		EndToEnd: []metricDef{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
			{Name: "lat_p50_ms.light", Unit: "ms", Better: "lower", Bound: bound(0.1)},
		},
		PerLayer: []metricDef{{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"}},
	}
}

func TestConfigValidate(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		c := validConfig()
		if err := c.Validate(); err != nil {
			t.Fatalf("Expected no error, got: %s", err)
		}
	})
	for _, tc := range []struct {
		name   string
		mutate func(*benchConfig)
		want   string
	}{
		{"duplicate metric", func(c *benchConfig) { c.PerLayer = append(c.PerLayer, c.PerLayer[0]) },
			"duplicate name: serve.queue_ms_p50"},
		{"metric named like a workload", func(c *benchConfig) { c.PerLayer[0].Name = "a" }, "duplicate name: a"},
		{"invalid name", func(c *benchConfig) { c.PerLayer[0].Name = "queue ms" }, `invalid name: "queue ms"`},
		{"invalid unit", func(c *benchConfig) { c.PerLayer[0].Unit = "m s" }, "has an invalid unit"},
		{"invalid better", func(c *benchConfig) { c.PerLayer[0].Better = "up" }, "has an invalid better"},
		{"bound too large", func(c *benchConfig) { c.EndToEnd[1].Bound = bound(0.5) }, "needs a bound"},
		{"per-layer bound", func(c *benchConfig) { c.PerLayer[0].Bound = bound(0.1) }, "must not carry a bound"},
		{"no setup_s", func(c *benchConfig) { c.EndToEnd = c.EndToEnd[1:] }, "must declare setup_s"},
		{"two-line why", func(c *benchConfig) { c.Workloads[0].Why = "a\nb" }, "one line"},
	} {
		t.Run("invalid: "+tc.name, func(t *testing.T) {
			c := validConfig()
			c.EndToEnd = slices.Clone(c.EndToEnd)
			c.PerLayer = slices.Clone(c.PerLayer)
			tc.mutate(&c)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Expected error containing %q, got: %v", tc.want, err)
			}
		})
	}
}

func TestBenchmarkJSONDecodesStrictly(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseBenchConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every workload the file declares is one this benchmark runs.
	for _, w := range c.Workloads {
		if _, err := newWorkload(w.Name, 2); err != nil {
			t.Error(err)
		}
	}
	if _, err := parseBenchConfig([]byte(strings.Replace(string(data), `"paths"`, `"pathz"`, 1))); err == nil {
		t.Error("an unknown field decoded")
	}
	if _, err := parseBenchConfig(append(slices.Clone(data), "{}"...)); err == nil {
		t.Error("trailing data decoded")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "muxwire.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.queue", Start: 20, End: 100},
		{ID: 3, Parent: 2, Name: "nn.compute", Start: 60, End: 100},
		{ID: 4, Parent: 1, Name: "loadgen.lag", Start: 0, End: 10},
		{ID: 5, Parent: 1, Name: "loadgen.lag", Start: 5, End: 30}, // overlaps its siblings
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"muxwire": 0, "serve": 40, "nn": 40, "loadgen": 35}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
}
