package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"

	dlis "repro"
	"repro/internal/serve/fleetcfg"
)

// fullSize names the full-size model whose Table III operating points a
// mini model borrows for compressed techniques, as the benchmark does.
var fullSize = map[string]string{
	"mini-vgg":       "vgg16",
	"mini-resnet":    "resnet18",
	"mini-mobilenet": "mobilenet",
}

// profile compiles the model's plan for one batch size on one thread,
// runs it runs times with a per-step clock, and prints each step's
// algorithm, MACs per image, median time per image and share of the
// summed medians.
func profile(w io.Writer, model, technique string, batch, runs int, seed uint64) error {
	if batch < 1 || runs < 1 {
		return fmt.Errorf("-batch and -runs must be at least 1")
	}
	tech, err := fleetcfg.ParseTechnique(technique)
	if err != nil {
		return err
	}
	var pt dlis.OperatingPoint
	if tech != dlis.Plain {
		src := model
		if full, ok := fullSize[model]; ok {
			src = full
		}
		pts, err := dlis.TableIII(src)
		if err != nil {
			return err
		}
		pt = pts[tech]
	}
	inst, err := dlis.Instantiate(dlis.StackConfig{Model: model, Technique: tech, Point: pt,
		Backend: dlis.OMP, Threads: 1, Platform: "intel-i7", Seed: seed})
	if err != nil {
		return err
	}
	plan, err := inst.PlanFor(batch)
	if err != nil {
		return err
	}

	names := plan.StepNames()
	samples := make([][]float64, len(names))
	ns := make([]int64, len(names))
	shape := inst.Net.InputShape
	img := dlis.NewImage(batch, shape[1], shape[2], seed)
	for r := -1; r < runs; r++ { // run -1 warms caches and is discarded
		// Activations ping-pong through the input buffer; refill it.
		plan.Input().CopyFrom(img)
		plan.RunProfiled(ns)
		if r < 0 {
			continue
		}
		for i, v := range ns {
			samples[i] = append(samples[i], float64(v)/1e6/float64(batch))
		}
	}

	// A step's algorithms are its own (a conv) or its inner convs'
	// (a residual block's are named "<block>.<conv>").
	algos := make([]string, len(names))
	for i, name := range names {
		var seen []string
		for _, a := range plan.Algos() {
			if (a.Layer == name || strings.HasPrefix(a.Layer, name+".")) && !slices.Contains(seen, a.Algo.String()) {
				seen = append(seen, a.Algo.String())
			}
		}
		algos[i] = strings.Join(seen, "+")
		if algos[i] == "" {
			algos[i] = "-"
		}
	}
	stats, _ := inst.Net.Describe(1)
	macs := map[string]int64{}
	for _, s := range stats {
		macs[s.Name] = s.MACs
	}

	med := make([]float64, len(names))
	var total float64
	for i := range names {
		slices.Sort(samples[i])
		med[i] = samples[i][len(samples[i])/2]
		total += med[i]
	}
	fmt.Fprintf(w, "profile %s/%s: batch %d, %d runs, Threads 1, GOMAXPROCS %d, %s/%s\n",
		model, tech, batch, runs, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "%-14s %-18s %12s %14s %7s\n", "step", "algo", "MACs/img", "median ms/img", "share")
	for i, name := range names {
		fmt.Fprintf(w, "%-14s %-18s %12d %14.4f %6.1f%%\n", name, algos[i], macs[name], med[i], 100*med[i]/total)
	}
	fmt.Fprintf(w, "%-14s %-18s %12s %14.4f\n", "sum", "", "", total)
	return nil
}
