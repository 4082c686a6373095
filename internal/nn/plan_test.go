package nn

import (
	"fmt"
	"testing"

	"repro/internal/sparse"
	"repro/internal/tensor"
)

// planTestNet builds a small network exercising every plannable layer
// kind: padded and pad-0 convolutions, a depthwise (grouped) conv, a
// residual block with a projection shortcut, batch-norm, pooling, and
// the classifier head.
func planTestNet(r *tensor.RNG) *Network {
	net := NewNetwork("plan-test", tensor.Shape{3, 8, 8}, 5)
	net.Add(
		NewConv2D("c1", sparse.ConvParams{InC: 3, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1}, r),
		NewBatchNorm("bn1", 8),
		NewReLU("r1"),
		NewConv2D("dw", sparse.ConvParams{InC: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 8}, r),
		NewConv2D("pw", sparse.ConvParams{InC: 8, OutC: 12, KH: 1, KW: 1, Stride: 1, Pad: 0, Groups: 1}, r),
		NewResidualBlock("res", 12, 16, 2, r),
		NewMaxPool2D("mp", 2),
		NewGlobalAvgPool("gap"),
		NewFlatten("fl"),
		NewLinear("fc", 16, 5, r),
	)
	// Make the batch-norm statistics non-trivial so the inference fold
	// is actually exercised.
	bn := net.Layers[1].(*BatchNorm)
	for i := range bn.RunningMean {
		bn.RunningMean[i] = 0.1 * float32(i)
		bn.RunningVar[i] = 1 + 0.05*float32(i)
	}
	return net
}

func planFor(t *testing.T, net *Network, algo Algo, batch int) *Plan {
	t.Helper()
	ctx := Inference()
	ctx.Algo = algo
	p, err := Compile(net, ctx, tensor.Shape{batch, 3, 8, 8})
	if err != nil {
		t.Fatalf("compile(%v): %v", algo, err)
	}
	return p
}

// TestPlanMatchesForwardAllAlgos re-runs every algorithm through the
// plan engine and checks parity with the eager Forward path.
func TestPlanMatchesForwardAllAlgos(t *testing.T) {
	for _, algo := range []Algo{Direct, Im2colGEMM, Winograd, SparseDirect} {
		t.Run(algo.String(), func(t *testing.T) {
			r := tensor.NewRNG(101)
			net := planTestNet(r)
			if algo == SparseDirect {
				// Prune by zeroing small weights so CSR has real structure.
				for _, c := range net.Convs() {
					w := c.W.W.Data()
					for i := range w {
						if w[i] < 0.05 && w[i] > -0.05 {
							w[i] = 0
						}
					}
				}
				net.Freeze()
			}
			in := randInput(tensor.NewRNG(102), 2, 3, 8, 8)
			want := net.Forward(inferCtx(algo, 1), in)
			p := planFor(t, net, algo, 2)
			got := p.Execute(in)
			if !got.Shape().Equal(want.Shape()) {
				t.Fatalf("plan output shape %v, want %v", got.Shape(), want.Shape())
			}
			tol := 0.0
			if algo == Im2colGEMM || algo == Winograd {
				tol = 1e-4 // different summation order / transform domain
			}
			if d := tensor.MaxAbsDiff(got, want); d > tol {
				t.Fatalf("plan differs from eager forward by %v", d)
			}
			// Re-execution over the same buffers must be deterministic.
			again := p.Execute(in)
			if d := tensor.MaxAbsDiff(again, want); d > tol {
				t.Fatalf("second plan execution differs by %v", d)
			}
		})
	}
}

// TestPlanMatchesForwardMultiThreaded checks parity with parallel loops
// engaged (2 threads exercises ForWorker's per-worker scratch).
func TestPlanMatchesForwardMultiThreaded(t *testing.T) {
	for _, algo := range []Algo{Direct, Im2colGEMM} {
		r := tensor.NewRNG(103)
		net := planTestNet(r)
		in := randInput(tensor.NewRNG(104), 3, 3, 8, 8)
		want := net.Forward(inferCtx(algo, 1), in)
		ctx := Inference()
		ctx.Algo = algo
		ctx.Threads = 2
		p, err := Compile(net, ctx, tensor.Shape{3, 3, 8, 8})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Execute(in)
		if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("%v threads=2: plan differs by %v", algo, d)
		}
	}
}

// TestPlanAutoSelectsPerLayer compiles under Auto and checks that a
// choice was recorded for every convolution and that the outputs agree
// with the direct reference.
func TestPlanAutoSelectsPerLayer(t *testing.T) {
	r := tensor.NewRNG(105)
	net := planTestNet(r)
	in := randInput(tensor.NewRNG(106), 1, 3, 8, 8)
	want := net.Forward(inferCtx(Direct, 1), in)
	p := planFor(t, net, Auto, 1)
	got := p.Execute(in)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("auto plan differs from direct reference by %v", d)
	}
	algos := p.Algos()
	// 3 standalone convs + 3 in the residual block (conv1, conv2, skip).
	if len(algos) != 6 {
		t.Fatalf("recorded %d conv algo choices, want 6: %v", len(algos), algos)
	}
	for _, pa := range algos {
		if pa.Algo == Auto {
			t.Fatalf("layer %q left unresolved (Auto) in the compiled plan", pa.Layer)
		}
	}
}

// TestPlanZeroAllocations is the steady-state guarantee: after
// compilation, executing the plan performs no heap allocation, for
// every algorithm.
func TestPlanZeroAllocations(t *testing.T) {
	for _, algo := range []Algo{Direct, Im2colGEMM, Winograd, SparseDirect, QuantInt8, QuantF16} {
		t.Run(algo.String(), func(t *testing.T) {
			r := tensor.NewRNG(107)
			net := planTestNet(r)
			if algo == SparseDirect {
				net.Freeze()
			}
			p := planFor(t, net, algo, 2)
			in := randInput(tensor.NewRNG(108), 2, 3, 8, 8)
			p.Execute(in) // warm-up
			if allocs := testing.AllocsPerRun(10, func() { p.Run() }); allocs != 0 {
				t.Fatalf("%v: plan execution performed %v allocations per inference, want 0", algo, allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() { p.Execute(in) }); allocs != 0 {
				t.Fatalf("%v: Execute performed %v allocations, want 0", algo, allocs)
			}
		})
	}
}

// TestPlanBatchIndependence: each image in a batched plan must produce
// exactly the logits a batch-1 plan produces for it.
func TestPlanBatchIndependence(t *testing.T) {
	r := tensor.NewRNG(109)
	net := planTestNet(r)
	const batch = 3
	in := randInput(tensor.NewRNG(110), batch, 3, 8, 8)
	pb := planFor(t, net, Direct, batch)
	batched := pb.Execute(in).Clone()
	p1 := planFor(t, net, Direct, 1)
	per := in.NumElements() / batch
	classes := batched.NumElements() / batch
	for i := 0; i < batch; i++ {
		img := tensor.FromSlice(in.Data()[i*per:(i+1)*per], 1, 3, 8, 8)
		solo := p1.Execute(img)
		row := tensor.FromSlice(batched.Data()[i*classes:(i+1)*classes], 1, classes)
		if d := tensor.MaxAbsDiff(solo.Reshape(1, classes), row); d != 0 {
			t.Fatalf("image %d: batched row differs from solo inference by %v", i, d)
		}
	}
}

// TestPlanSeesWeightUpdates: plans hold views into the live weights, so
// in-place updates (fine-tuning steps) are visible without recompiling.
func TestPlanSeesWeightUpdates(t *testing.T) {
	r := tensor.NewRNG(111)
	net := planTestNet(r)
	in := randInput(tensor.NewRNG(112), 1, 3, 8, 8)
	p := planFor(t, net, Direct, 1)
	before := p.Execute(in).Clone()
	net.Convs()[0].W.W.Scale(2)
	after := p.Execute(in)
	if d := tensor.MaxAbsDiff(before, after); d == 0 {
		t.Fatal("weight update invisible to the compiled plan")
	}
	want := net.Forward(inferCtx(Direct, 1), in)
	if d := tensor.MaxAbsDiff(after, want); d != 0 {
		t.Fatalf("post-update plan differs from eager forward by %v", d)
	}
}

func TestPlanRejectsTrainingContext(t *testing.T) {
	ctx := Inference()
	ctx.Training = true
	if _, err := Compile(planTestNet(tensor.NewRNG(113)), ctx, tensor.Shape{1, 3, 8, 8}); err == nil {
		t.Fatal("expected an error compiling a training context")
	}
}

func TestPlanRejectsBadShape(t *testing.T) {
	net := planTestNet(tensor.NewRNG(114))
	if _, err := Compile(net, Inference(), tensor.Shape{1, 3, 8}); err == nil {
		t.Fatal("expected an error for a non-NCHW shape")
	}
	// Channel mismatch surfaces as an error, not a panic.
	if _, err := Compile(net, Inference(), tensor.Shape{1, 5, 8, 8}); err == nil {
		t.Fatal("expected an error for mismatched channels")
	}
}

func TestPlanAccounting(t *testing.T) {
	net := planTestNet(tensor.NewRNG(115))
	p := planFor(t, net, Direct, 1)
	if p.Bytes() <= 0 {
		t.Fatal("plan must account a positive working set")
	}
	if p.Steps() != 10-1 { // one layer (Flatten) compiles to a view, not a step
		t.Fatalf("plan has %d steps, want 9", p.Steps())
	}
}

// TestPlanRunProfiled: the profiled run computes exactly what Run
// computes, names every step, times every step, and allocates nothing.
func TestPlanRunProfiled(t *testing.T) {
	net := planTestNet(tensor.NewRNG(118))
	p := planFor(t, net, Direct, 2)
	in := randInput(tensor.NewRNG(119), 2, 3, 8, 8)
	want := p.Execute(in).Clone()

	names := p.StepNames()
	wantNames := []string{"c1", "bn1", "r1", "dw", "pw", "res", "mp", "gap", "fc"}
	if fmt.Sprint(names) != fmt.Sprint(wantNames) {
		t.Fatalf("StepNames = %v, want %v", names, wantNames)
	}
	ns := make([]int64, p.Steps())
	p.Input().CopyFrom(in) // activations ping-pong through the input slab
	if d := tensor.MaxAbsDiff(p.RunProfiled(ns), want); d != 0 {
		t.Fatalf("profiled run differs from Run by %v", d)
	}
	var total int64
	for i, v := range ns {
		if v < 0 {
			t.Fatalf("step %s timed %d ns", names[i], v)
		}
		total += v
	}
	if total <= 0 {
		t.Fatal("profiled run recorded no time")
	}
	if allocs := testing.AllocsPerRun(10, func() { p.RunProfiled(ns) }); allocs != 0 {
		t.Fatalf("RunProfiled performed %v allocations, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunProfiled accepted a short timing slice")
		}
	}()
	p.RunProfiled(ns[:1])
}

// TestPlanSharedBlockScratch: consecutive residual blocks reuse one
// scratch pair; outputs must still match the eager path, and the plan
// working set must not grow two buffers per block.
func TestPlanSharedBlockScratch(t *testing.T) {
	r := tensor.NewRNG(116)
	net := NewNetwork("res-chain", tensor.Shape{3, 8, 8}, 4)
	net.Add(
		NewConv2D("c1", sparse.ConvParams{InC: 3, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1}, r),
		NewResidualBlock("b1", 8, 8, 1, r),  // identity skip
		NewResidualBlock("b2", 8, 16, 2, r), // projection skip
		NewResidualBlock("b3", 16, 16, 1, r),
		NewGlobalAvgPool("gap"),
		NewFlatten("fl"),
		NewLinear("fc", 16, 4, r),
	)
	in := randInput(tensor.NewRNG(117), 2, 3, 8, 8)
	want := net.Forward(inferCtx(Direct, 1), in)
	ctx := Inference()
	p, err := Compile(net, ctx, tensor.Shape{2, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Execute(in)
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("chained residual plan differs from eager forward by %v", d)
	}
	// Appending one more identical block must grow the working set by
	// that block's conv scratch only (two padded inputs of 2×16×6×6 =
	// 9216 bytes) — NOT by another block-sized buffer pair (+4096),
	// since all blocks share the compiler's scratch pair.
	net.Layers = append(net.Layers[:len(net.Layers)-3],
		append([]Layer{NewResidualBlock("b4", 16, 16, 1, r)}, net.Layers[len(net.Layers)-3:]...)...)
	p4, err := Compile(net, ctx, tensor.Shape{2, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if delta := p4.Bytes() - p.Bytes(); delta >= 9216+4096 {
		t.Fatalf("extra block grew the working set by %d bytes; want conv scratch only (9216), shared block buffers", delta)
	}
}
