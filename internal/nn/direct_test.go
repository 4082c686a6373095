package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sparse"
	"repro/internal/tensor"
)

// scalarDirectConv is the one-output-channel-per-job direct kernel the
// register-blocked directBody replaced, frozen here as the reference:
// each output element accumulates its bias, then its taps in
// icl → ky → kx order.
func scalarDirectConv(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n, h, w := in.Shape()[0], in.Shape()[2], in.Shape()[3]
	padded := tensor.Pad2D(in, g.Pad)
	ph, pw := padded.Shape()[2], padded.Shape()[3]
	oh, ow := g.OutSize(h, w)
	out := tensor.New(n, g.OutC, oh, ow)
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	wd, pd, od, bias := c.W.W.Data(), padded.Data(), out.Data(), c.B.W.Data()
	kArea := g.KH * g.KW
	for job := 0; job < n*g.OutC; job++ {
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
					v := wd[wBase+(icl*g.KH+ky)*g.KW+kx]
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
	return out
}

// bitsEqual reports whether a and b hold the same float32 bit patterns.
func bitsEqual(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestDirectBlockedBitIdentical pins the register-blocked direct
// kernel to the frozen scalar loop bit for bit, on the eager and the
// compiled path, across full and partial channel blocks, grouped and
// depthwise layers, strides, padding, kernel sizes, spatial sizes,
// batch sizes and thread counts. A third of the weights are exact
// zeros, which the dense kernel must still multiply through.
func TestDirectBlockedBitIdentical(t *testing.T) {
	type chans struct{ inC, outC, groups int }
	channels := []chans{
		{3, 4, 1}, {3, 5, 1}, {3, 8, 1}, {3, 13, 1}, // full and partial blocks
		{6, 2, 2}, {6, 6, 2}, {6, 12, 2}, // groups 2, opg 1, 3 and 6
		{5, 5, 5}, // depthwise
	}
	seed := uint64(1)
	for _, ch := range channels {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, k := range []int{1, 3} {
					for _, hw := range []int{2, 9} {
						for _, batch := range []int{1, 3} {
							geom := sparse.ConvParams{InC: ch.inC, OutC: ch.outC, KH: k, KW: k,
								Stride: stride, Pad: pad, Groups: ch.groups}
							if hw+2*pad < k {
								continue // the kernel overhangs the padded input
							}
							seed++
							name := fmt.Sprintf("in%d_out%d_g%d_s%d_p%d_k%d_hw%d_n%d",
								ch.inC, ch.outC, ch.groups, stride, pad, k, hw, batch)
							t.Run(name, func(t *testing.T) {
								checkDirectBitIdentical(t, geom, hw, batch, seed)
							})
						}
					}
				}
			}
		}
	}
}

func checkDirectBitIdentical(t *testing.T, geom sparse.ConvParams, hw, batch int, seed uint64) {
	r := tensor.NewRNG(seed)
	conv := NewConv2D("c", geom, r)
	wd := conv.W.W.Data()
	for i := 0; i < len(wd); i += 3 {
		wd[i] = 0
	}
	conv.B.W.FillNormal(r, 0, 1)
	in := randInput(r, batch, geom.InC, hw, hw)
	want := scalarDirectConv(conv, in)

	net := NewNetwork("direct", tensor.Shape{geom.InC, hw, hw}, 1)
	net.Add(conv)
	for _, threads := range []int{1, 2, 4} {
		eager := conv.Forward(inferCtx(Direct, threads), in)
		if d := tensor.MaxAbsDiff(eager, want); d != 0 || !bitsEqual(eager, want) {
			t.Fatalf("threads=%d eager: blocked kernel differs from scalar reference (max |Δ| %g)", threads, d)
		}
		ctx := Inference()
		ctx.Algo, ctx.Threads = Direct, threads
		p, err := Compile(net, ctx, in.Shape())
		if err != nil {
			t.Fatal(err)
		}
		got := p.Execute(in)
		if d := tensor.MaxAbsDiff(got, want); d != 0 || !bitsEqual(got, want) {
			t.Fatalf("threads=%d plan: blocked kernel differs from scalar reference (max |Δ| %g)", threads, d)
		}
	}
}
