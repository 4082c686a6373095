package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro"
	"repro/internal/core"
	"repro/internal/tensor"
)

// Output check tolerances for f32 paths. A served logit may differ from
// the batch-1 reference by summation order only, so it must lie within
// absTol + relTol·|reference| of it and give the same class. int8 paths
// quantise activations per batch, so only their class is checked.
const (
	absTol = 1e-4
	relTol = 1e-3
)

// stackDef is one stack configuration the benchmark serves.
type stackDef struct {
	name  string // routing name and metric suffix, e.g. "mini-vgg.wp"
	cfg   dlis.StackConfig
	exact bool // f32 path: logits checked within tolerance
}

// miniStacks is the paper's Table I axes on the mini models. Each
// compressed config takes its full-size counterpart's Table III point.
// mini-resnet.cp does not compile today; it is kept so the failure
// shows.
func miniStacks() ([]stackDef, error) {
	vgg, err := dlis.TableIII("vgg16")
	if err != nil {
		return nil, err
	}
	rn, err := dlis.TableIII("resnet18")
	if err != nil {
		return nil, err
	}
	def := func(name, model string, t dlis.Technique, pt dlis.OperatingPoint, auto bool) stackDef {
		return stackDef{
			name: name,
			cfg: dlis.StackConfig{Model: model, Technique: t, Point: pt, Backend: dlis.OMP,
				Threads: 1, Platform: "intel-i7", Seed: weightSeed, AutoAlgo: auto},
			exact: t != dlis.Quantised,
		}
	}
	return []stackDef{
		def("mini-vgg.plain", "mini-vgg", dlis.Plain, vgg[dlis.Plain], false),
		def("mini-vgg.auto", "mini-vgg", dlis.Plain, vgg[dlis.Plain], true),
		def("mini-vgg.wp", "mini-vgg", dlis.WeightPruned, vgg[dlis.WeightPruned], false),
		def("mini-vgg.cp", "mini-vgg", dlis.ChannelPruned, vgg[dlis.ChannelPruned], false),
		def("mini-vgg.int8", "mini-vgg", dlis.Quantised, vgg[dlis.Quantised], false),
		def("mini-resnet.plain", "mini-resnet", dlis.Plain, rn[dlis.Plain], false),
		def("mini-resnet.cp", "mini-resnet", dlis.ChannelPruned, rn[dlis.ChannelPruned], false),
		def("mini-mobilenet.plain", "mini-mobilenet", dlis.Plain, dlis.OperatingPoint{}, false),
	}, nil
}

// weightSeed fixes the model weights. The workload seed varies only the
// inputs the program receives: images, arrival times, SLOs and tenants.
const weightSeed = 42

// imagePool generates the seeded input images.
func imagePool(seed uint64, n int) []*tensor.Tensor {
	r := tensor.NewRNG(seed | 1)
	pool := make([]*tensor.Tensor, n)
	for i := range pool {
		pool[i] = tensor.New(3, 32, 32)
		pool[i].FillNormal(r, 0, 1)
	}
	return pool
}

// reference is one config's batch-1 logits for every pool image.
type reference struct {
	Logits [][]float32 `json:"logits,omitempty"`
	Err    string      `json:"err,omitempty"` // the config's plan does not compile
}

// checker compares served outputs with batch-1 references computed
// through core before the timed window.
type checker struct {
	refs  map[string]*reference
	exact map[string]bool // f32 configs, checked within tolerance

	mu               sync.Mutex
	checked, matched int
	worstRatio       float64 // largest |Δ| / tolerance over checked logits
	firstMismatch    string
}

// writeReferences computes every stack's references and stores them at
// path. It runs in a child process: instantiating a channel-pruned
// model leaves tens of MB of garbage, which would otherwise land in the
// measuring process's peak RSS.
func writeReferences(path string, stacks []stackDef, images []*tensor.Tensor) error {
	refs := map[string]*reference{}
	for _, s := range stacks {
		refs[s.name] = computeReference(s, images)
	}
	data, err := json.Marshal(refs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func computeReference(s stackDef, images []*tensor.Tensor) *reference {
	inst, err := core.Instantiate(s.cfg)
	if err != nil {
		return &reference{Err: err.Error()}
	}
	plan, err := inst.PlanFor(1)
	if err != nil {
		return &reference{Err: err.Error()}
	}
	ref := &reference{}
	for _, img := range images {
		ref.Logits = append(ref.Logits, append([]float32(nil), plan.Execute(img).Data()...))
	}
	return ref
}

// readChecker loads the references writeReferences stored.
func readChecker(path string, stacks []stackDef, images int) (*checker, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &checker{exact: map[string]bool{}}
	if err := json.Unmarshal(data, &c.refs); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	for _, s := range stacks {
		ref := c.refs[s.name]
		if ref == nil || (ref.Err == "" && len(ref.Logits) != images) {
			return nil, fmt.Errorf("references: %s is missing", s.name)
		}
		c.exact[s.name] = s.exact
	}
	return c, nil
}

// check compares one answered image, served by pool stack, with the
// reference for pool image idx.
func (c *checker) check(stack string, idx int, out *tensor.Tensor, class int) bool {
	ref := c.refs[stack]
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checked++
	if ref == nil || ref.Err != "" || out == nil {
		c.mismatch(fmt.Sprintf("%s image %d: no reference or no output", stack, idx))
		return false
	}
	want := ref.Logits[idx]
	got := out.Data()
	wantClass := argmax(want)
	if class != wantClass || len(got) != len(want) {
		c.mismatch(fmt.Sprintf("%s image %d: class %d, reference %d", stack, idx, class, wantClass))
		return false
	}
	if c.exact[stack] {
		for j := range want {
			tol := absTol + relTol*math.Abs(float64(want[j]))
			d := math.Abs(float64(got[j] - want[j]))
			if d > tol {
				c.mismatch(fmt.Sprintf("%s image %d logit %d: %g, reference %g", stack, idx, j, got[j], want[j]))
				return false
			}
			c.worstRatio = max(c.worstRatio, d/tol)
		}
	}
	c.matched++
	return true
}

// counts returns the images checked and those that matched.
func (c *checker) counts() (checked, matched int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checked, c.matched
}

func (c *checker) printSummary(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "output check: %d of %d images match; largest f32 |Δ| is %.3g of the tolerance\n",
		c.matched, c.checked, c.worstRatio)
	if c.firstMismatch != "" {
		fmt.Fprintf(w, "first mismatch: %s\n", c.firstMismatch)
	}
}

func (c *checker) mismatch(msg string) {
	if c.firstMismatch == "" {
		c.firstMismatch = msg
	}
}

func argmax(v []float32) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
