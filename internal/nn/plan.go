package nn

import (
	"fmt"
	"time"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// Compiled execution plans.
//
// The eager Forward path allocates every intermediate on every call:
// each conv news its output, pads its input, builds im2col columns,
// and so on. A Plan removes all of that from the steady state. Compile
// walks the network once for a fixed input shape, records every
// layer's output and scratch geometry, carves the whole working set
// out of one tensor.Arena — a ping-pong pair of activation slabs plus
// per-layer scratch (padded inputs, im2col columns, Winograd tiles,
// GEMM products) — and lowers each layer to a closure over those
// buffers. Executing the plan then performs zero heap allocations: the
// inference hot path the serving layer runs is pure compute over
// memory allocated at compile time.
//
// Activations ping-pong between two slabs sized to the largest
// activation in the network: layer i reads slab A and writes slab B,
// layer i+1 reads B and writes A. Reshape-only layers (Flatten) pass a
// view through without flipping. Composite layers (ResidualBlock)
// draw private scratch from the arena so the slab discipline holds
// across their internal dataflow.
//
// A plan is compiled for one input shape, one thread configuration and
// one algorithm policy; it holds views into its network's weights, so
// weight updates are visible to subsequent executions, but structural
// changes (pruning surgery, re-freezing CSR views) require recompiling.
// Plans are not safe for concurrent execution — the serving layer
// gives each replica worker its own plans (see internal/core and
// internal/serve).

// PlanLayer is the interface layers implement to participate in
// compiled plans. PlanStep compiles an inference step that reads in
// and writes out — both preallocated, with shapes agreed via Describe
// — and returns a closure that must perform no heap allocation.
type PlanLayer interface {
	Layer
	PlanStep(pc *PlanCompiler, in, out *tensor.Tensor) func()
}

// planReshaper is implemented by bookkeeping layers (Flatten) whose
// output is a reshaped view of their input; no step executes at run
// time.
type planReshaper interface {
	PlanReshape(in *tensor.Tensor) *tensor.Tensor
}

// PlanAlgo records the algorithm compiled for one convolution layer —
// the per-layer schedule Auto selection produces.
type PlanAlgo struct {
	Layer string
	Algo  Algo
}

// planStep is one executable unit of a compiled plan.
type planStep struct {
	name string
	run  func()
}

// Plan is a compiled inference program: an ordered list of
// allocation-free steps over an arena-owned working set.
type Plan struct {
	ctx    Context
	steps  []planStep
	input  *tensor.Tensor
	output *tensor.Tensor
	arena  *tensor.Arena
	algos  []PlanAlgo
}

// Compile lowers the network into a plan for the given NCHW input
// shape. ctx fixes the thread count, schedule and algorithm policy
// (ctx.Algo == Auto enables per-layer selection); ctx.Training must be
// false — plans are an inference construct. Layer shape violations
// surface as errors rather than panics so servers can reject bad
// configurations gracefully.
func Compile(net *Network, ctx Context, inShape tensor.Shape) (p *Plan, err error) {
	if ctx.Training {
		return nil, fmt.Errorf("nn: cannot compile a training context; plans are inference-only")
	}
	if ctx.Threads < 1 {
		ctx.Threads = 1
	}
	if inShape.Rank() != 4 {
		return nil, fmt.Errorf("nn: Compile requires an NCHW input shape, got %v", inShape)
	}
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, fmt.Errorf("nn: compiling %q for %v: %v", net.NetName, inShape, rec)
		}
	}()

	// Pre-pass: walk the shape chain to size the ping-pong slabs to the
	// largest activation crossing a layer boundary, and the shared
	// residual-block scratch pair to the largest block output (blocks
	// execute sequentially, so one pair serves every block instead of
	// two buffers per block).
	maxElems := inShape.NumElements()
	resElems := 0
	shape := inShape.Clone()
	for _, l := range net.Layers {
		_, shape = l.Describe(shape)
		if n := shape.NumElements(); n > maxElems {
			maxElems = n
		}
		if _, ok := l.(*ResidualBlock); ok {
			if n := shape.NumElements(); n > resElems {
				resElems = n
			}
		}
	}

	arena := tensor.NewArena()
	pc := &PlanCompiler{
		ctx:       ctx,
		net:       net,
		arena:     arena,
		algoCache: make(map[string]Algo),
	}
	pc.slabs[0] = arena.AllocSlice(maxElems)
	pc.slabs[1] = arena.AllocSlice(maxElems)
	if resElems > 0 {
		pc.resSlabs[0] = arena.AllocSlice(resElems)
		pc.resSlabs[1] = arena.AllocSlice(resElems)
	}
	p = &Plan{ctx: ctx, arena: arena}
	pc.plan = p
	p.input = tensor.FromSlice(pc.slabs[0][:inShape.NumElements()], inShape...)
	pc.flip = 1

	x := p.input
	for _, l := range net.Layers {
		if r, ok := l.(planReshaper); ok {
			x = r.PlanReshape(x)
			continue
		}
		pl, ok := l.(PlanLayer)
		if !ok {
			return nil, fmt.Errorf("nn: layer %q (%T) does not support compiled plans", l.Name(), l)
		}
		_, outShape := l.Describe(x.Shape())
		out := pc.dest(outShape)
		p.steps = append(p.steps, planStep{name: l.Name(), run: pl.PlanStep(pc, x, out)})
		x = out
	}
	p.output = x
	return p, nil
}

// Input returns the plan's input buffer. Callers fill it (Data() or
// CopyFrom) and call Run; the serving layer assembles batches directly
// into it to avoid a second copy.
func (p *Plan) Input() *tensor.Tensor { return p.input }

// Output returns the buffer Run's result lives in. It is overwritten
// by the next execution.
func (p *Plan) Output() *tensor.Tensor { return p.output }

// Run executes the plan over the current contents of Input and returns
// Output. It performs no heap allocation; with Threads > 1 the only
// transient allocations are the fork/join goroutines of the parallel
// loops themselves.
//
//dlis:noalloc
func (p *Plan) Run() *tensor.Tensor {
	for i := range p.steps {
		p.steps[i].run()
	}
	return p.output
}

// RunProfiled is Run with a per-step clock: it executes the plan over
// the current contents of Input and writes step i's elapsed monotonic
// nanoseconds into ns[i], in StepNames order. ns must hold at least
// Steps() entries; the caller owns it, so profiling a plan repeatedly
// allocates nothing.
//
//dlis:noalloc
func (p *Plan) RunProfiled(ns []int64) *tensor.Tensor {
	if len(ns) < len(p.steps) {
		panic(fmt.Sprintf("nn: RunProfiled needs %d step slots, got %d", len(p.steps), len(ns)))
	}
	prev := time.Now()
	for i := range p.steps {
		p.steps[i].run()
		now := time.Now()
		ns[i] = int64(now.Sub(prev))
		prev = now
	}
	return p.output
}

// Execute copies in into the plan's input buffer and runs. The input
// must have exactly the compiled element count (its shape may be the
// C×H×W per-image form or the batched N×C×H×W form).
func (p *Plan) Execute(in *tensor.Tensor) *tensor.Tensor {
	if in.NumElements() != p.input.NumElements() {
		panic(fmt.Sprintf("nn: plan compiled for %v (%d elements), input has %d",
			p.input.Shape(), p.input.NumElements(), in.NumElements()))
	}
	copy(p.input.Data(), in.Data())
	return p.Run()
}

// Bytes returns the plan's working-set size: activation slabs plus all
// per-layer scratch.
func (p *Plan) Bytes() int { return p.arena.Bytes() }

// Steps returns the number of executable steps (composite layers count
// once).
func (p *Plan) Steps() int { return len(p.steps) }

// StepNames returns the layer name of each executable step, in
// execution order — the index space of RunProfiled's timings.
func (p *Plan) StepNames() []string {
	names := make([]string, len(p.steps))
	for i, st := range p.steps {
		names[i] = st.name
	}
	return names
}

// Algos lists the algorithm compiled for each convolution layer in
// execution order — under Auto, the per-layer winners.
func (p *Plan) Algos() []PlanAlgo {
	out := make([]PlanAlgo, len(p.algos))
	copy(out, p.algos)
	return out
}

// PlanCompiler carries compile state down the layer stack: the
// execution context, the arena the plan's buffers come from, the
// ping-pong activation slabs, and the per-geometry algorithm cache
// Auto selection fills.
type PlanCompiler struct {
	ctx       Context
	net       *Network
	arena     *tensor.Arena
	slabs     [2][]float32
	resSlabs  [2][]float32
	flip      int
	tuner     blas.AlgoTuner
	algoCache map[string]Algo
	plan      *Plan
}

// Ctx returns the execution context the plan compiles against.
func (pc *PlanCompiler) Ctx() Context { return pc.ctx }

// Arena exposes the plan's arena so layers can size kernel scratch
// (e.g. blas.NewWinogradScratch) from it.
func (pc *PlanCompiler) Arena() *tensor.Arena { return pc.arena }

// Scratch carves a per-layer scratch tensor out of the plan's arena.
func (pc *PlanCompiler) Scratch(shape ...int) *tensor.Tensor { return pc.arena.Alloc(shape...) }

// blockScratch returns views of the shared residual-block scratch pair
// at the given shape. Blocks execute one at a time, so every block
// reuses the same two buffers — working-set memory tracks the largest
// block, not network depth.
func (pc *PlanCompiler) blockScratch(shape tensor.Shape) (*tensor.Tensor, *tensor.Tensor) {
	n := shape.NumElements()
	if n > len(pc.resSlabs[0]) {
		panic(fmt.Sprintf("nn: block scratch %v (%d elements) exceeds reserved size %d",
			shape, n, len(pc.resSlabs[0])))
	}
	return tensor.FromSlice(pc.resSlabs[0][:n], shape...),
		tensor.FromSlice(pc.resSlabs[1][:n], shape...)
}

// dest returns the next ping-pong activation view: a prefix of the
// slab the current input does NOT live in.
func (pc *PlanCompiler) dest(shape tensor.Shape) *tensor.Tensor {
	n := shape.NumElements()
	if n > len(pc.slabs[pc.flip]) {
		panic(fmt.Sprintf("nn: activation %v (%d elements) exceeds slab size %d", shape, n, len(pc.slabs[pc.flip])))
	}
	view := tensor.FromSlice(pc.slabs[pc.flip][:n], shape...)
	pc.flip ^= 1
	return view
}

// convAlgo resolves the execution algorithm for one convolution at the
// given input. A fixed policy passes through (with Winograd demoted to
// Direct on ineligible geometries, mirroring the eager fallback); Auto
// times every candidate — direct, im2col+GEMM, Winograd where
// eligible, CSR-sparse where the weights are actually sparse, and the
// reduced-precision kernels on quantised networks — using the eager
// kernels on the compile-time input. Winners resolve through the cache
// hierarchy in tuner.go (per-plan → process memo → disk), so a
// geometry is timed at most once per process and, with a disk cache
// installed, at most once per host.
func (pc *PlanCompiler) convAlgo(c *Conv2D, in *tensor.Tensor) Algo {
	algo := pc.ctx.Algo
	if algo == Winograd && !c.winogradOK() {
		return Direct
	}
	if algo != Auto {
		return algo
	}
	sp := c.W.W.Sparsity()
	candidates := []Algo{Direct, Im2colGEMM}
	if c.winogradOK() {
		candidates = append(candidates, Winograd)
	}
	// CSR only ever wins at substantial sparsity (paper Fig. 1), and
	// building the view for a dense layer would double its weight
	// memory — gate the candidate rather than time a sure loser.
	if sp >= 0.25 {
		candidates = append(candidates, SparseDirect)
	}
	// The reduced-precision kernels only make sense once compress/quant
	// has shaped the weights (ternary rows: exact zeros to skip, little
	// left to lose to int8 rounding); on unquantised networks they would
	// trade accuracy for nothing.
	if pc.net != nil && pc.net.Quantised() {
		candidates = append(candidates, QuantInt8, QuantF16)
	}
	h, w := in.Shape()[2], in.Shape()[3]
	key := tunerKey(c.Geom, h, w, pc.ctx.Threads, sp, candidates)
	if cached, ok := pc.algoCache[key]; ok {
		return cached
	}
	algo, hit := lookupTunedAlgo(key, candidates)
	if !hit {
		// Build the lazy weight views (CSR, int8, f16) outside the timed
		// region so one-time construction cost doesn't bias the verdict.
		for _, a := range candidates {
			switch a {
			case SparseDirect:
				c.CSR()
			case QuantInt8:
				c.QWeights()
			case QuantF16:
				c.F16Weights()
			}
		}
		runs := make([]func(), len(candidates))
		for i, a := range candidates {
			ctx := Context{Threads: pc.ctx.Threads, Sched: pc.ctx.Sched, Algo: a}
			runs[i] = func() { _ = c.Forward(&ctx, in) }
		}
		best, _ := pc.tuner.Pick(runs)
		algo = candidates[best]
		storeTunedAlgo(key, algo)
	}
	pc.algoCache[key] = algo
	return algo
}
