package nn

import (
	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// This file holds the reduced-precision convolution paths (QuantInt8,
// QuantF16). Both lower through im2col like the f32 GEMM path — the
// weight matrix is simply stored at reduced precision — except for
// depthwise geometries (one input channel per group), where the
// per-group GEMM degenerates to a single row and the im2col lowering
// costs more than it saves; those fall back to a direct kernel that
// dequantises each filter tap once and skips exact-zero codes.

// quantPrefersDirect reports whether the quantised paths should use the
// direct fallback instead of the im2col lowering.
func (c *Conv2D) quantPrefersDirect() bool { return c.Geom.InC/c.Geom.Groups == 1 }

// quantDirectBody is directBody over int8 weight codes: each tap is
// dequantised once (scale is per output channel) and exact-zero codes —
// the TTQ ternary zeros — skip the whole spatial loop, which the dense
// f32 kernel deliberately does not do.
func (c *Conv2D) quantDirectBody(qw *blas.QMatrix, padded, out *tensor.Tensor) func(job int) {
	g := c.Geom
	ph, pw := padded.Shape()[2], padded.Shape()[3]
	oh, ow := out.Shape()[2], out.Shape()[3]
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	pd, od, bias := padded.Data(), out.Data(), c.B.W.Data()
	kArea := g.KH * g.KW

	//dlis:noalloc
	return func(job int) {
		ni, oc := job/g.OutC, job%g.OutC
		group := oc / opg
		dst := od[(ni*g.OutC+oc)*oh*ow : (ni*g.OutC+oc+1)*oh*ow]
		b := bias[oc]
		for i := range dst {
			dst[i] = b
		}
		scale := qw.Scales[oc]
		wBase := oc * cpg * kArea
		inBase := ni * g.InC * ph * pw
		for icl := 0; icl < cpg; icl++ {
			ic := group*cpg + icl
			src := pd[inBase+ic*ph*pw:]
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					code := qw.Data[wBase+(icl*g.KH+ky)*g.KW+kx]
					if code == 0 {
						continue
					}
					v := scale * float32(code)
					for y := 0; y < oh; y++ {
						srcRow := src[(y*g.Stride+ky)*pw+kx:]
						dstRow := dst[y*ow : (y+1)*ow]
						if g.Stride == 1 {
							for x := range dstRow {
								dstRow[x] += v * srcRow[x]
							}
						} else {
							for x := range dstRow {
								dstRow[x] += v * srcRow[x*g.Stride]
							}
						}
					}
				}
			}
		}
	}
}

// f16DirectBody is the binary16 analogue of quantDirectBody: taps are
// decoded once each and exact-zero codes are skipped.
func (c *Conv2D) f16DirectBody(wf *blas.F16Matrix, padded, out *tensor.Tensor) func(job int) {
	g := c.Geom
	ph, pw := padded.Shape()[2], padded.Shape()[3]
	oh, ow := out.Shape()[2], out.Shape()[3]
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	pd, od, bias := padded.Data(), out.Data(), c.B.W.Data()
	kArea := g.KH * g.KW

	//dlis:noalloc
	return func(job int) {
		ni, oc := job/g.OutC, job%g.OutC
		group := oc / opg
		dst := od[(ni*g.OutC+oc)*oh*ow : (ni*g.OutC+oc+1)*oh*ow]
		b := bias[oc]
		for i := range dst {
			dst[i] = b
		}
		wBase := oc * cpg * kArea
		inBase := ni * g.InC * ph * pw
		for icl := 0; icl < cpg; icl++ {
			ic := group*cpg + icl
			src := pd[inBase+ic*ph*pw:]
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					code := wf.Data[wBase+(icl*g.KH+ky)*g.KW+kx]
					if code&0x7fff == 0 {
						continue
					}
					v := blas.F16ToF32(code)
					for y := 0; y < oh; y++ {
						srcRow := src[(y*g.Stride+ky)*pw+kx:]
						dstRow := dst[y*ow : (y+1)*ow]
						if g.Stride == 1 {
							for x := range dstRow {
								dstRow[x] += v * srcRow[x]
							}
						} else {
							for x := range dstRow {
								dstRow[x] += v * srcRow[x*g.Stride]
							}
						}
					}
				}
			}
		}
	}
}

// forwardQuantInt8 is the eager int8 path: im2col the input, quantise
// the columns dynamically with one scale per job, run the int8 GEMM and
// dequantise into the output. The plan path (planQuantInt8) replays the
// same structure over pre-reserved scratch.
func (c *Conv2D) forwardQuantInt8(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n, _, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	oh, ow := g.OutSize(h, w)
	out := tensor.New(n, g.OutC, oh, ow)
	qw := c.QWeights()
	if c.quantPrefersDirect() {
		padded := tensor.Pad2D(in, g.Pad)
		parallel.For(n*g.OutC, ctx.Threads, ctx.Sched, c.quantDirectBody(qw, padded, out))
		return out
	}
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	ohow := oh * ow
	p := blas.Im2colParams{C: cpg, H: h, W: w, KH: g.KH, KW: g.KW, Stride: g.Stride, Pad: g.Pad}
	bias := c.B.W.Data()
	jobs := n * g.Groups

	parallel.For(jobs, ctx.Threads, ctx.Sched, func(job int) {
		ni, grp := job/g.Groups, job%g.Groups
		base := (ni*g.InC + grp*cpg) * h * w
		sub := tensor.FromSlice(in.Data()[base:base+cpg*h*w], cpg, h, w)
		cols := blas.Im2col(sub, p)
		colsI8 := make([]int8, len(cols.Data()))
		bScale := blas.QuantizeInt8(colsI8, cols.Data())
		prod := tensor.New(opg, ohow)
		wView := qw.RowView(grp*opg, (grp+1)*opg)
		// Mirror the f32 path's thread hand-off: a lone job row-splits
		// the GEMM across threads instead of running it sequentially.
		if jobs == 1 && ctx.Threads > 1 {
			parallel.ForRange(opg, ctx.Threads, func(lo, hi int) {
				acc := make([]int32, blas.QAccLen(ohow))
				blas.QGEMMInt8Into(prod.Data()[lo*ohow:hi*ohow], wView.RowView(lo, hi), colsI8, ohow, bScale, acc)
			})
		} else {
			acc := make([]int32, blas.QAccLen(ohow))
			blas.QGEMMInt8Into(prod.Data(), wView, colsI8, ohow, bScale, acc)
		}
		for ol := 0; ol < opg; ol++ {
			oc := grp*opg + ol
			dst := out.Data()[(ni*g.OutC+oc)*ohow : (ni*g.OutC+oc+1)*ohow]
			src := prod.Data()[ol*ohow : (ol+1)*ohow]
			b := bias[oc]
			for i := range dst {
				dst[i] = src[i] + b
			}
		}
	})
	return out
}

// forwardQuantF16 is the eager binary16-storage path: the im2col
// columns stay f32 and the weight matrix is decoded on the fly.
func (c *Conv2D) forwardQuantF16(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n, _, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	oh, ow := g.OutSize(h, w)
	out := tensor.New(n, g.OutC, oh, ow)
	wf := c.F16Weights()
	if c.quantPrefersDirect() {
		padded := tensor.Pad2D(in, g.Pad)
		parallel.For(n*g.OutC, ctx.Threads, ctx.Sched, c.f16DirectBody(wf, padded, out))
		return out
	}
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	ohow := oh * ow
	p := blas.Im2colParams{C: cpg, H: h, W: w, KH: g.KH, KW: g.KW, Stride: g.Stride, Pad: g.Pad}
	bias := c.B.W.Data()
	jobs := n * g.Groups

	parallel.For(jobs, ctx.Threads, ctx.Sched, func(job int) {
		ni, grp := job/g.Groups, job%g.Groups
		base := (ni*g.InC + grp*cpg) * h * w
		sub := tensor.FromSlice(in.Data()[base:base+cpg*h*w], cpg, h, w)
		cols := blas.Im2col(sub, p)
		prod := tensor.New(opg, ohow)
		wView := wf.RowView(grp*opg, (grp+1)*opg)
		if jobs == 1 && ctx.Threads > 1 {
			parallel.ForRange(opg, ctx.Threads, func(lo, hi int) {
				blas.GEMMF16Into(prod.Data()[lo*ohow:hi*ohow], wView.RowView(lo, hi), cols.Data(), ohow)
			})
		} else {
			blas.GEMMF16Into(prod.Data(), wView, cols.Data(), ohow)
		}
		for ol := 0; ol < opg; ol++ {
			oc := grp*opg + ol
			dst := out.Data()[(ni*g.OutC+oc)*ohow : (ni*g.OutC+oc+1)*ohow]
			src := prod.Data()[ol*ohow : (ol+1)*ohow]
			b := bias[oc]
			for i := range dst {
				dst[i] = src[i] + b
			}
		}
	})
	return out
}

// planQuantInt8 compiles the int8 path. Weight scales are baked at
// compile time (QWeights); the int8 column/accumulator scratch is plain
// compile-time make() — the arena only serves float32 — and is reused
// across every inference, so Run stays allocation-free like the f32
// steps.
func (c *Conv2D) planQuantInt8(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	g := c.Geom
	qw := c.QWeights()
	if c.quantPrefersDirect() {
		src, padScratch := c.padPlan(pc, in)
		body := c.quantDirectBody(qw, src, out)
		jobs := in.Shape()[0] * g.OutC
		threads, sched := pc.ctx.Threads, pc.ctx.Sched
		//dlis:noalloc
		return func() {
			if padScratch != nil {
				tensor.Pad2DInto(padScratch, in, g.Pad)
			}
			parallel.For(jobs, threads, sched, body)
		}
	}

	n, h, w := in.Shape()[0], in.Shape()[2], in.Shape()[3]
	oh, ow := g.OutSize(h, w)
	ohow := oh * ow
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	p := blas.Im2colParams{C: cpg, H: h, W: w, KH: g.KH, KW: g.KW, Stride: g.Stride, Pad: g.Pad}
	jobs := n * g.Groups
	threads, sched := pc.ctx.Threads, pc.ctx.Sched
	workers := threads
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	colRows, colCols := p.ColShape()
	cols := make([]*tensor.Tensor, workers)
	colsI8 := make([][]int8, workers)
	acc := make([][]int32, workers)
	prod := make([]*tensor.Tensor, workers)
	for i := range cols {
		cols[i] = pc.Scratch(colRows, colCols)
		colsI8[i] = make([]int8, colRows*colCols)
		acc[i] = make([]int32, blas.QAccLen(ohow))
		prod[i] = pc.Scratch(opg, ohow)
	}
	inSub := make([]*tensor.Tensor, jobs)
	for job := 0; job < jobs; job++ {
		ni, grp := job/g.Groups, job%g.Groups
		base := (ni*g.InC + grp*cpg) * h * w
		inSub[job] = tensor.FromSlice(in.Data()[base:base+cpg*h*w], cpg, h, w)
	}
	qSub := make([]*blas.QMatrix, g.Groups)
	for grp := 0; grp < g.Groups; grp++ {
		qSub[grp] = qw.RowView(grp*opg, (grp+1)*opg)
	}
	od := out.Data()
	bias := c.B.W.Data()

	// A lone job row-splits the GEMM across threads (jobs==1 implies a
	// single group, so every compile-time view below is for group 0).
	// The per-block row views, per-worker accumulators and the bScale
	// hand-off slot are all reserved here so Run allocates nothing.
	var rowPar func()
	var bsSlot []float32
	if jobs == 1 && threads > 1 {
		blkView := make([]*blas.QMatrix, threads)
		blkAcc := make([][]int32, threads)
		for blk := 0; blk < threads; blk++ {
			lo, hi := blk*opg/threads, (blk+1)*opg/threads
			blkView[blk] = qSub[0].RowView(lo, hi)
			blkAcc[blk] = make([]int32, blas.QAccLen(ohow))
		}
		bsSlot = make([]float32, 1)
		pd := prod[0].Data()
		bs := bsSlot
		inner := func(worker, blk int) {
			lo, hi := blk*opg/threads, (blk+1)*opg/threads
			if lo == hi {
				return
			}
			blas.QGEMMInt8Into(pd[lo*ohow:hi*ohow], blkView[blk], colsI8[0], ohow, bs[0], blkAcc[worker])
		}
		rowPar = func() { parallel.ForWorker(threads, threads, sched, inner) }
	}

	body := func(worker, job int) {
		ni, grp := job/g.Groups, job%g.Groups
		blas.Im2colInto(cols[worker], inSub[job], p)
		bScale := blas.QuantizeInt8(colsI8[worker], cols[worker].Data())
		if rowPar != nil {
			bsSlot[0] = bScale
			rowPar()
		} else {
			blas.QGEMMInt8Into(prod[worker].Data(), qSub[grp], colsI8[worker], ohow, bScale, acc[worker])
		}
		pd := prod[worker].Data()
		for ol := 0; ol < opg; ol++ {
			oc := grp*opg + ol
			dst := od[(ni*g.OutC+oc)*ohow : (ni*g.OutC+oc+1)*ohow]
			src := pd[ol*ohow : (ol+1)*ohow]
			b := bias[oc]
			for i := range dst {
				dst[i] = src[i] + b
			}
		}
	}
	//dlis:noalloc
	return func() {
		parallel.ForWorker(jobs, threads, sched, body)
	}
}

// planQuantF16 compiles the binary16-storage path; structurally the f32
// GEMM plan with the weight operand halved in size.
func (c *Conv2D) planQuantF16(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	g := c.Geom
	wf := c.F16Weights()
	if c.quantPrefersDirect() {
		src, padScratch := c.padPlan(pc, in)
		body := c.f16DirectBody(wf, src, out)
		jobs := in.Shape()[0] * g.OutC
		threads, sched := pc.ctx.Threads, pc.ctx.Sched
		//dlis:noalloc
		return func() {
			if padScratch != nil {
				tensor.Pad2DInto(padScratch, in, g.Pad)
			}
			parallel.For(jobs, threads, sched, body)
		}
	}

	n, h, w := in.Shape()[0], in.Shape()[2], in.Shape()[3]
	oh, ow := g.OutSize(h, w)
	ohow := oh * ow
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	p := blas.Im2colParams{C: cpg, H: h, W: w, KH: g.KH, KW: g.KW, Stride: g.Stride, Pad: g.Pad}
	jobs := n * g.Groups
	threads, sched := pc.ctx.Threads, pc.ctx.Sched
	workers := threads
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	colRows, colCols := p.ColShape()
	cols := make([]*tensor.Tensor, workers)
	prod := make([]*tensor.Tensor, workers)
	for i := range cols {
		cols[i] = pc.Scratch(colRows, colCols)
		prod[i] = pc.Scratch(opg, ohow)
	}
	inSub := make([]*tensor.Tensor, jobs)
	for job := 0; job < jobs; job++ {
		ni, grp := job/g.Groups, job%g.Groups
		base := (ni*g.InC + grp*cpg) * h * w
		inSub[job] = tensor.FromSlice(in.Data()[base:base+cpg*h*w], cpg, h, w)
	}
	wSub := make([]*blas.F16Matrix, g.Groups)
	for grp := 0; grp < g.Groups; grp++ {
		wSub[grp] = wf.RowView(grp*opg, (grp+1)*opg)
	}
	od := out.Data()
	bias := c.B.W.Data()

	var rowPar func()
	if jobs == 1 && threads > 1 {
		blkView := make([]*blas.F16Matrix, threads)
		for blk := 0; blk < threads; blk++ {
			lo, hi := blk*opg/threads, (blk+1)*opg/threads
			blkView[blk] = wSub[0].RowView(lo, hi)
		}
		pd := prod[0].Data()
		cd := cols[0].Data()
		inner := func(_, blk int) {
			lo, hi := blk*opg/threads, (blk+1)*opg/threads
			if lo == hi {
				return
			}
			blas.GEMMF16Into(pd[lo*ohow:hi*ohow], blkView[blk], cd, ohow)
		}
		rowPar = func() { parallel.ForWorker(threads, threads, sched, inner) }
	}

	body := func(worker, job int) {
		ni, grp := job/g.Groups, job%g.Groups
		blas.Im2colInto(cols[worker], inSub[job], p)
		if rowPar != nil {
			rowPar()
		} else {
			blas.GEMMF16Into(prod[worker].Data(), wSub[grp], cols[worker].Data(), ohow)
		}
		pd := prod[worker].Data()
		for ol := 0; ol < opg; ol++ {
			oc := grp*opg + ol
			dst := od[(ni*g.OutC+oc)*ohow : (ni*g.OutC+oc+1)*ohow]
			src := pd[ol*ohow : (ol+1)*ohow]
			b := bias[oc]
			for i := range dst {
				dst[i] = src[i] + b
			}
		}
	}
	//dlis:noalloc
	return func() {
		parallel.ForWorker(jobs, threads, sched, body)
	}
}
