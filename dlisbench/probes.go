package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro"
	"repro/internal/blas"
	"repro/internal/nn"
	"repro/internal/serve/httpapi"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// The probes time calls into single layers' public functions. They run
// in their own phase, before the load, and never beside it.

// timeReps runs fn once to warm it, then reps times inside spans named
// name, and returns the median wall time in milliseconds.
func timeReps(tr *tracer, name string, reps int, fn func()) float64 {
	fn()
	samples := make([]float64, reps)
	for i := range samples {
		samples[i] = ms(tr.timed(name, 0, fn))
	}
	return median(samples)
}

// probeStacks measures set-up and plan execution per stack config:
// Instantiate, the batch-8 PlanFor compile, and per-image plan time at
// batch 1 and 8. A config whose plan does not compile reports its error
// text instead of plan metrics.
func probeStacks(tr *tracer, res *resultSet, stacks []stackDef, images []*tensor.Tensor, report io.Writer) {
	const reps = 3
	for _, s := range stacks {
		inst := make([]*dlis.Instance, reps)
		var instMS, planMS []float64
		var compileErr error
		for i := range inst {
			var err error
			instMS = append(instMS, ms(tr.timed("core.Instantiate."+s.name, 0, func() {
				inst[i], err = dlis.Instantiate(s.cfg)
			})))
			if err != nil {
				fmt.Fprintf(report, "probe %s: instantiate: %v\n", s.name, err)
				break
			}
			planMS = append(planMS, ms(tr.timed("core.PlanFor."+s.name+".b8", 0, func() {
				_, compileErr = inst[i].PlanFor(8)
			})))
		}
		if len(instMS) == reps {
			res.put("core.instantiate_ms."+s.name, "ms", median(instMS), reps, "")
		}
		if compileErr != nil {
			fmt.Fprintf(report, "probe %s: plan does not compile: %v\n", s.name, compileErr)
			continue
		}
		if len(planMS) == reps {
			res.put("core.planfor_ms."+s.name+".b8", "ms", median(planMS), reps, "")
		}
		for _, b := range []int{1, 8} {
			plan, err := inst[0].PlanFor(b)
			if err != nil {
				fmt.Fprintf(report, "probe %s b%d: %v\n", s.name, b, err)
				continue
			}
			fillBatch(plan.Input(), images)
			runs := 40 / b // about 40 images per batch size
			v := timeReps(tr, fmt.Sprintf("nn.plan.%s.b%d", s.name, b), runs, func() { plan.Run() })
			res.put(fmt.Sprintf("nn.plan_ms_per_image.%s.b%d", s.name, b), "ms", v/float64(b), runs, "median run / batch")
		}
	}
}

// probeParallel runs the mini-vgg plain batch-8 plan with Threads=2,
// which drives the parallel package's fork/join loops.
func probeParallel(tr *tracer, res *resultSet, s stackDef, images []*tensor.Tensor) error {
	cfg := s.cfg
	cfg.Threads = 2
	inst, err := dlis.Instantiate(cfg)
	if err != nil {
		return err
	}
	plan, err := inst.PlanFor(8)
	if err != nil {
		return err
	}
	fillBatch(plan.Input(), images)
	v := timeReps(tr, "parallel.plan."+s.name+".t2.b8", 5, func() { plan.Run() })
	res.put("nn.plan_ms_per_image."+s.name+".t2.b8", "ms", v/8, 5, "Threads=2, median run / batch")
	return nil
}

// fillBatch copies pool images into a plan's input buffer.
func fillBatch(in *tensor.Tensor, images []*tensor.Tensor) {
	d := in.Data()
	n := images[0].NumElements()
	for i := 0; i*n < len(d); i++ {
		copy(d[i*n:(i+1)*n], images[i%len(images)].Data())
	}
}

// costliestConv returns the convolution of net with the most MACs per
// image and its input shape.
func costliestConv(net *dlis.Network) (*nn.Conv2D, tensor.Shape) {
	var best *nn.Conv2D
	var bestIn tensor.Shape
	var bestMACs int64
	shape := tensor.Shape{1, net.InputShape[0], net.InputShape[1], net.InputShape[2]}
	for _, l := range net.Layers {
		st, out := l.Describe(shape)
		if c, ok := l.(*nn.Conv2D); ok && st.MACs > bestMACs {
			best, bestIn, bestMACs = c, shape, st.MACs
		}
		shape = out
	}
	return best, bestIn
}

// probeKernels times the blas and sparse kernels at mini-vgg's
// costliest convolution, one image, and reports each kernel's operation
// count and the bytes it moves, computed from tensor sizes.
func probeKernels(tr *tracer, res *resultSet, plain, pruned stackDef, report io.Writer) error {
	dense, err := dlis.Instantiate(plain.cfg)
	if err != nil {
		return err
	}
	sp, err := dlis.Instantiate(pruned.cfg)
	if err != nil {
		return err
	}
	conv, in := costliestConv(dense.Net)
	spConv, _ := costliestConv(sp.Net)
	g := conv.Geom
	c, h, w := in[1], in[2], in[3]
	p := blas.Im2colParams{C: c, H: h, W: w, KH: g.KH, KW: g.KW, Stride: g.Stride, Pad: g.Pad}
	k, n := p.ColShape()
	m := g.OutC
	oh, ow := p.OutSize()
	fmt.Fprintf(report, "kernel geometry: %s, in %dx%dx%d, out %d, %dx%d kernel (GEMM M=%d K=%d N=%d)\n",
		conv.Name(), c, h, w, m, g.KH, g.KW, m, k, n)

	img := tensor.New(1, c, h, w)
	img.FillNormal(tensor.NewRNG(7), 0, 1)
	cols := tensor.New(k, n)
	blas.Im2colInto(cols, img, p)
	wmat := tensor.FromSlice(conv.W.W.Data(), m, k)
	dst := tensor.New(m, n)
	flops := blas.GEMMFLOPs(m, k, n)
	gemmBytes := 4 * (m*k + k*n + m*n)
	tile := blas.DefaultTiling()
	const reps = 20

	v := timeReps(tr, "blas.gemm", reps, func() { blas.GEMMInto(dst, wmat, cols, tile) })
	res.put("blas.gemm_gflops", "GFLOP/s", float64(flops)/v/1e6, reps, "")
	fmt.Fprintf(report, "blas.gemm: %d FLOP, %d B moved per call, %.4f ms\n", flops, gemmBytes, v)

	v = timeReps(tr, "blas.gemm_par2", reps, func() { blas.GEMMParallelInto(dst, wmat, cols, tile, 2) })
	res.put("blas.gemm_par2_gflops", "GFLOP/s", float64(flops)/v/1e6, reps, "2 threads")
	fmt.Fprintf(report, "blas.gemm_par2: %d FLOP, %d B moved per call, %.4f ms\n", flops, gemmBytes, v)

	colBytes := 4*c*h*w + p.ColBytes()
	v = timeReps(tr, "blas.im2col", reps, func() { blas.Im2colInto(cols, img, p) })
	res.put("blas.im2col_gbs", "GB/s", float64(colBytes)/v/1e6, reps, "")
	fmt.Fprintf(report, "blas.im2col: %d B moved per call, %.4f ms\n", colBytes, v)

	if g.KH == 3 && g.KW == 3 && g.Stride == 1 && g.Pad == 1 {
		out := tensor.New(1, m, h, w)
		scratch := blas.NewWinogradScratch(nil, 1, c, h, w, m)
		v = timeReps(tr, "blas.winograd", reps, func() {
			blas.WinogradConv2DInto(out, img, conv.W.W, conv.B.W.Data(), scratch)
		})
		res.put("blas.winograd_ms", "ms", v, reps, "")
		fmt.Fprintf(report, "blas.winograd: %d multiplies, %d B moved per call, %.4f ms\n",
			blas.WinogradMultiplies(m, c, h, w), 4*(c*h*w+m*c*9+m*h*w), v)
	}

	qa := blas.QuantizeRowsInt8(wmat.Data(), m, k)
	qb := make([]int8, k*n)
	bScale := blas.QuantizeInt8(qb, cols.Data())
	acc := make([]int32, blas.QAccLen(n))
	qdst := make([]float32, m*n)
	v = timeReps(tr, "blas.qgemm_int8", reps, func() { blas.QGEMMInt8Into(qdst, qa, qb, n, bScale, acc) })
	res.put("blas.qgemm_int8_gops", "GOP/s", float64(flops)/v/1e6, reps, "dense-equivalent ops")
	fmt.Fprintf(report, "blas.qgemm_int8: %d OP, %d B moved per call, %.4f ms\n", flops, m*k+k*n+4*m*n, v)

	csr := spConv.CSR()
	if csr == nil {
		return fmt.Errorf("probe: %s has no CSR weights", pruned.name)
	}
	sg := spConv.Geom
	out := tensor.New(1, sg.OutC, oh, ow)
	var padded *tensor.Tensor
	if sg.Pad > 0 {
		padded = tensor.New(1, c, h+2*sg.Pad, w+2*sg.Pad)
	}
	v = timeReps(tr, "sparse.csr_conv", reps, func() {
		sparse.Conv2DInto(out, img, csr, spConv.B.W.Data(), sg, padded)
	})
	res.put("sparse.csr_conv_ms", "ms", v, reps, fmt.Sprintf("sparsity %.4f", csr.Sparsity()))
	fmt.Fprintf(report, "sparse.csr_conv: %d FLOP, %d B moved per call, %.4f ms\n",
		sparse.ConvWorkFLOPs(csr, oh, ow), csr.Bytes()+4*(c*h*w+sg.OutC*oh*ow), v)
	return nil
}

// probeCodec times the DLW1 codec on a one-image request and its
// response, and measures the bytes one encode/decode round of both
// allocates.
func probeCodec(tr *tracer, res *resultSet, images []*tensor.Tensor) error {
	req := dlis.Request{Target: "mini-vgg", Images: images[:1], Tenant: "tenant-a",
		SLO: dlis.SLO{MinAccuracy: 90, Priority: 1}}
	logits := tensor.New(1, 10)
	logits.FillNormal(tensor.NewRNG(3), 0, 1)
	resp := &dlis.Response{Results: []dlis.ServeResult{{Output: logits, Stack: "mini-vgg.cp",
		Class: logits.ArgMax(), BatchSize: 4, Latency: time.Millisecond, Compute: time.Millisecond}}}
	const maxElems = 1 << 20
	var reqBuf, respBuf bytes.Buffer
	if err := httpapi.EncodeRequest(&reqBuf, req); err != nil {
		return err
	}
	if err := httpapi.EncodeResponse(&respBuf, resp); err != nil {
		return err
	}
	reqBytes, respBytes := reqBuf.Bytes(), respBuf.Bytes()
	var codecErr error
	keep := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	encReq := func() { reqBuf.Reset(); keep(httpapi.EncodeRequest(&reqBuf, req)) }
	decReq := func() { _, err := httpapi.DecodeRequest(bytes.NewReader(reqBytes), maxElems); keep(err) }
	encResp := func() { respBuf.Reset(); keep(httpapi.EncodeResponse(&respBuf, resp)) }
	decResp := func() { _, err := httpapi.DecodeResponse(bytes.NewReader(respBytes), maxElems); keep(err) }

	const reps = 400
	for _, c := range []struct {
		name string
		fn   func()
	}{{"encode_req", encReq}, {"decode_req", decReq}, {"encode_resp", encResp}, {"decode_resp", decResp}} {
		v := timeReps(tr, "httpapi."+c.name, reps, c.fn)
		res.put("httpapi."+c.name+"_us", "us", v*1000, reps, "")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		encReq()
		decReq()
		encResp()
		decResp()
	}
	runtime.ReadMemStats(&after)
	res.put("httpapi.codec_alloc_bytes", "B", float64(after.TotalAlloc-before.TotalAlloc)/reps, reps,
		fmt.Sprintf("per encode+decode of a %d B request and a %d B response", len(reqBytes), len(respBytes)))
	return codecErr
}
