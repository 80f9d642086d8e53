package nn

import (
	"fmt"

	"sov/internal/parallel"
)

// QLayer is one stage of a quantized network. Layers consume and produce
// int8 tensors directly — there is no float round-trip between stages; the
// requantization from the int32 accumulator domain to the next layer's
// int8 domain is fused into each kernel.
type QLayer interface {
	// ForwardInto computes the layer output into out, which must have the
	// layer's OutShape and OutParams. Every output element is written.
	ForwardInto(in, out *QTensor)
	OutShape(c, h, w int) (int, int, int)
	// OutParams is the quantization of the layer's output tensor.
	OutParams() QuantParams
	Name() string
}

// ceilDiv returns ceil(a/b) for non-negative a, positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// fanArgs are the operands of a layer's current forward call, staged for
// its fan-out body. Each layer binds that body once per instance (a method
// value, set by its constructor and by ShareClone), so a warm forward
// builds no closure at any worker count; ForwardInto fills fanArgs before
// the fan-out and clears it after (DESIGN.md §10).
type fanArgs struct {
	in, out *QTensor
	oh, ow  int
	swar    bool  // QConv2D direct path: SWAR interior enabled
	sumU    int64 // QFC: Σu of the packed input row
}

// QConv2D is the fused int8 convolution: conv + bias + ReLU + requantize in
// one pass. Interior output pixels (full receptive field) accumulate with a
// zero-point-folded bias over a branch-free inner loop; border pixels take
// the exact per-tap path. Accumulation is int32 throughout.
type QConv2D struct {
	InC, OutC int
	K         int
	Stride    int
	Pad       int
	Weights   []int8  // [outC][inC][K][K], symmetric per-tensor
	Bias      []int32 // accumulator domain (inScale × weightScale)
	// foldedBias is Bias minus zeroIn × Σ(weights of the channel): the
	// full-window accumulation then needs no per-tap zero-point subtraction.
	foldedBias []int32
	InP, OutP  QuantParams
	WScale     float32
	ReLU       bool
	rq         requant
	zeroIn     int32
	// swarFold is foldedBias − 128·Σw per output channel: the constant that
	// rebases the SWAR interior's biased-domain accumulation (swar.go).
	swarFold []int32
	// ubuf is the input tensor as biased bytes u = x+128, packed once per
	// forward pass before any fan-out (read-only to the workers).
	ubuf []byte
	// gemm is the im2col GEMM backend (gemm.go), built at construction for
	// eligible shapes.
	gemm gemmState
	// fan stages the current call for the bound fan-out bodies: channelFn
	// (direct path, c.channelRange) and blockFn (GEMM, c.blockRange).
	fan       fanArgs
	channelFn func(o0, o1 int)
	blockFn   func(b0, b1 int)
}

// NewQConv2D quantizes a float convolution for the given input/output
// activation quantizations.
func NewQConv2D(c *Conv2D, in, out QuantParams) *QConv2D {
	w, ws := quantizeWeights(c.Weights)
	q := &QConv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		Weights: w, InP: in, OutP: out, WScale: ws, ReLU: c.ReLU,
		zeroIn: in.Zero,
	}
	accScale := in.Scale * ws
	q.Bias = quantizeBias(c.Bias, accScale)
	q.foldedBias = make([]int32, c.OutC)
	q.swarFold = make([]int32, c.OutC)
	per := c.InC * c.K * c.K
	for o := 0; o < c.OutC; o++ {
		var wsum int32
		for _, v := range w[o*per : (o+1)*per] {
			wsum += int32(v)
		}
		q.foldedBias[o] = q.Bias[o] - in.Zero*wsum
		q.swarFold[o] = q.foldedBias[o] - 128*wsum
	}
	q.rq = newRequant(float64(accScale)/float64(out.Scale), out.Zero, c.ReLU)
	q.initGEMM()
	q.bind()
	return q
}

// bind points the fan-out bodies at this instance. A copied layer must
// rebind: the copy's method values would still run on the original.
func (c *QConv2D) bind() {
	c.channelFn = c.channelRange
	c.blockFn = c.blockRange
}

// packInput rewrites the input tensor as biased bytes into c.ubuf (the SWAR
// interior and the GEMM A-panel packer both read it through 8-byte loads).
//
//sov:hotpath
func (c *QConv2D) packInput(in *QTensor) {
	n := len(in.Data)
	if cap(c.ubuf) < n {
		//sovlint:ignore hotalloc first-call scratch growth; warm passes reuse the biased byte buffer
		c.ubuf = make([]byte, n)
	}
	packBiasedBytesInto(c.ubuf[:n], in.Data)
}

// Name implements QLayer.
func (c *QConv2D) Name() string { return fmt.Sprintf("qconv%dx%d/%d->%d", c.K, c.K, c.InC, c.OutC) }

// OutShape implements QLayer.
func (c *QConv2D) OutShape(_, h, w int) (int, int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return c.OutC, oh, ow
}

// OutParams implements QLayer.
func (c *QConv2D) OutParams() QuantParams { return c.OutP }

// Forward allocates the output and runs the kernel (test convenience; the
// hot path is ForwardInto over pooled tensors).
func (c *QConv2D) Forward(in *QTensor) *QTensor {
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	out := NewQTensor(oc, oh, ow, c.OutP)
	c.ForwardInto(in, out)
	return out
}

// ForwardInto implements QLayer. The dispatcher (gemm.go) sends deep, wide
// layers to the im2col GEMM backend; everything else runs the direct
// tap-major kernel, whose stride-1 interior accumulates in SWAR 16-bit
// lanes. Both paths are exact integer arithmetic over independent work
// units, so the output is byte-identical across backends and worker counts.
//
//sov:hotpath
func (c *QConv2D) ForwardInto(in, out *QTensor) {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: qconv input channels %d != %d", in.C, c.InC))
	}
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	if out.C != oc || out.H != oh || out.W != ow {
		panic(fmt.Sprintf("nn: qconv output shape %dx%dx%d != %dx%dx%d", out.C, out.H, out.W, oc, oh, ow))
	}
	if c.gemmOK(oh, ow) {
		kernelDispatch.gemm.Add(1)
		c.forwardGEMM(in, out, oh, ow)
		return
	}
	kernelDispatch.direct.Add(1)
	oxLo, oxHi := c.interior(in.W, ow)
	swar := c.Stride == 1 && oxHi-oxLo >= 8
	if swar {
		c.packInput(in)
	}
	c.fan = fanArgs{in: in, out: out, oh: oh, ow: ow, swar: swar}
	parallel.For(oc, 1, c.channelFn)
	c.fan = fanArgs{}
}

// channelRange is the direct path's fan-out body: output channels
// [o0, o1) of the call staged in c.fan, over one pooled accumulator row.
//
//sov:hotpath
func (c *QConv2D) channelRange(o0, o1 int) {
	a := &c.fan
	oxLo, oxHi := c.interior(a.in.W, a.ow)
	acc := accRows.Get(oxHi - oxLo)
	for o := o0; o < o1; o++ {
		c.forwardChannel(a.in, a.out, o, a.oh, a.ow, a.swar, acc)
	}
	accRows.Put(acc)
}

// interior returns the [oxLo, oxHi) output-column range whose full K-wide
// window fits horizontally inside the input.
func (c *QConv2D) interior(inW, ow int) (oxLo, oxHi int) {
	oxLo = ceilDiv(c.Pad, c.Stride)
	oxHi = (inW-c.K+c.Pad)/c.Stride + 1
	if oxLo > ow {
		oxLo = ow
	}
	if oxHi > ow {
		oxHi = ow
	}
	if oxHi < oxLo {
		oxHi = oxLo
	}
	return oxLo, oxHi
}

// forwardChannel computes one output channel of the fused convolution.
// Interior output rows run eight pixels at a time through the SWAR chunk
// kernel when the stride is 1 (swar is set by the caller after packing the
// biased byte buffer); the ≤7 leftover columns — and every row when SWAR is
// off — accumulate tap-major: each weight is hoisted into a register once
// and swept across an int32 accumulator row (borrowed from the parallel
// pools), so the hot loop is a branch-free widening multiply-add with no
// per-pixel slicing. Integer addition is exact and associative, so neither
// reordering can perturb results.
//
//sov:hotpath
func (c *QConv2D) forwardChannel(in, out *QTensor, o, oh, ow int, swar bool, scratch []int32) {
	per := c.InC * c.K * c.K
	wBase := o * per
	fold := c.foldedBias[o]
	rq := c.rq
	oxLo, oxHi := c.interior(in.W, ow)
	n := oxHi - oxLo
	nC := 0
	if swar {
		nC = n &^ 7
	}
	acc := scratch[:n-nC]
	k3s1 := c.K == 3 && c.Stride == 1
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*c.Stride - c.Pad
		rowFull := iy0 >= 0 && iy0+c.K <= in.H
		outRow := out.Data[(o*oh+oy)*ow : (o*oh+oy+1)*ow]
		if !rowFull {
			for ox := 0; ox < ow; ox++ {
				outRow[ox] = rq.apply(c.accEdge(in, wBase, iy0, ox*c.Stride-c.Pad))
			}
			continue
		}
		for ox := 0; ox < oxLo; ox++ {
			outRow[ox] = rq.apply(c.accEdge(in, wBase, iy0, ox*c.Stride-c.Pad))
		}
		for j0 := 0; j0 < nC; j0 += 8 {
			c.swarChunk(in.H, in.W, iy0, oxLo+j0-c.Pad, o, outRow[oxLo+j0:oxLo+j0+8])
		}
		if len(acc) > 0 {
			for j := range acc {
				acc[j] = fold
			}
			ix0 := (oxLo+nC)*c.Stride - c.Pad
			for ic := 0; ic < c.InC; ic++ {
				wc := wBase + ic*c.K*c.K
				chanBase := (ic*in.H+iy0)*in.W + ix0
				for ky := 0; ky < c.K; ky++ {
					rowBase := chanBase + ky*in.W
					if k3s1 {
						w0 := int32(c.Weights[wc+ky*3])
						w1 := int32(c.Weights[wc+ky*3+1])
						w2 := int32(c.Weights[wc+ky*3+2])
						r := in.Data[rowBase : rowBase+len(acc)+2]
						for j, a := range acc {
							acc[j] = a + w0*int32(r[j]) + w1*int32(r[j+1]) + w2*int32(r[j+2])
						}
						continue
					}
					for kx := 0; kx < c.K; kx++ {
						w := int32(c.Weights[wc+ky*c.K+kx])
						if w == 0 {
							continue
						}
						r := in.Data[rowBase+kx:]
						for j := range acc {
							acc[j] += w * int32(r[j*c.Stride])
						}
					}
				}
			}
			for j, a := range acc {
				outRow[oxLo+nC+j] = rq.apply(a)
			}
		}
		for ox := oxHi; ox < ow; ox++ {
			outRow[ox] = rq.apply(c.accEdge(in, wBase, iy0, ox*c.Stride-c.Pad))
		}
	}
}

// swarChunk accumulates eight consecutive interior output pixels in SWAR
// 16-bit lanes. Each tap issues one 8-byte load of biased activations,
// splits it into even/odd 16-bit lanes, and multiply-accumulates the
// unsigned weight magnitude into positive- or negative-weight lane words;
// a running weight budget spills the lanes to int32 before Σ|w|·255 can
// exceed a 16-bit lane. The biased-domain total folds back through
// swarFold = foldedBias − 128·Σw, so the result is bit-exact with the
// tap-major accumulation.
//
//sov:hotpath
func (c *QConv2D) swarChunk(inH, inW, iy0, ix0, o int, outChunk []int8) {
	ub := c.ubuf
	per := c.K * c.K
	wBase := o * c.InC * per
	var acc [8]int32
	var pe, po, ne, no uint64
	var budP, budN int32
	for ic := 0; ic < c.InC; ic++ {
		wc := wBase + ic*per
		chanBase := (ic*inH+iy0)*inW + ix0
		for ky := 0; ky < c.K; ky++ {
			rowBase := chanBase + ky*inW
			wRow := wc + ky*c.K
			for kx := 0; kx < c.K; kx++ {
				w := int32(c.Weights[wRow+kx])
				if w == 0 {
					continue
				}
				v := load8(ub, rowBase+kx)
				even := v & swarEvenBytes
				odd := (v >> 8) & swarEvenBytes
				if w > 0 {
					if budP += w * 255; budP > 0xFFFF {
						spillLanes16(&acc, pe, po, 1)
						pe, po = 0, 0
						budP = w * 255
					}
					u := uint64(w)
					pe += even * u
					po += odd * u
				} else {
					w = -w
					if budN += w * 255; budN > 0xFFFF {
						spillLanes16(&acc, ne, no, -1)
						ne, no = 0, 0
						budN = w * 255
					}
					u := uint64(w)
					ne += even * u
					no += odd * u
				}
			}
		}
	}
	spillLanes16(&acc, pe, po, 1)
	spillLanes16(&acc, ne, no, -1)
	fold := c.swarFold[o]
	rq := c.rq
	for i, a := range &acc {
		outChunk[i] = rq.apply(fold + a)
	}
}

// accEdge accumulates one output pixel whose window is clipped by the
// image border: only valid taps contribute, each with the exact per-tap
// zero-point subtraction (clipped taps see real 0, which is the zero point
// itself, so they contribute nothing — identical semantics to the float
// kernel's implicit zero padding).
//
//sov:hotpath
func (c *QConv2D) accEdge(in *QTensor, wBase, iy0, ix0 int) int32 {
	ky0, ky1 := 0, c.K
	if iy0 < 0 {
		ky0 = -iy0
	}
	if iy0+c.K > in.H {
		ky1 = in.H - iy0
	}
	kx0, kx1 := 0, c.K
	if ix0 < 0 {
		kx0 = -ix0
	}
	if ix0+c.K > in.W {
		kx1 = in.W - ix0
	}
	sum := c.Bias[wBase/(c.InC*c.K*c.K)]
	zero := c.zeroIn
	for ic := 0; ic < c.InC; ic++ {
		wc := wBase + ic*c.K*c.K
		chanBase := ic * in.H * in.W
		for ky := ky0; ky < ky1; ky++ {
			rowBase := chanBase + (iy0+ky)*in.W + ix0
			wRow := wc + ky*c.K
			for kx := kx0; kx < kx1; kx++ {
				sum += int32(c.Weights[wRow+kx]) * (int32(in.Data[rowBase+kx]) - zero)
			}
		}
	}
	return sum
}

// QMaxPool2 is the 2×2 stride-2 max pool over int8 codes. Quantization is
// monotonic, so pooling codes equals pooling real values; parameters pass
// through unchanged and the kernel is exact. Build it with NewQMaxPool2,
// which binds the fan-out body.
type QMaxPool2 struct {
	P   QuantParams
	fan fanArgs
	fn  func(c0, c1 int) // p.channelRange, bound once
}

// NewQMaxPool2 returns a max-pool layer whose parameters pass through as p.
func NewQMaxPool2(p QuantParams) *QMaxPool2 {
	q := &QMaxPool2{P: p}
	q.fn = q.channelRange
	return q
}

// Name implements QLayer.
func (*QMaxPool2) Name() string { return "qmaxpool2" }

// OutShape implements QLayer.
func (*QMaxPool2) OutShape(c, h, w int) (int, int, int) { return c, h / 2, w / 2 }

// OutParams implements QLayer.
func (p *QMaxPool2) OutParams() QuantParams { return p.P }

// ForwardInto implements QLayer.
//
//sov:hotpath
func (p *QMaxPool2) ForwardInto(in, out *QTensor) {
	if out.C != in.C || out.H != in.H/2 || out.W != in.W/2 {
		panic(fmt.Sprintf("nn: qpool output shape %dx%dx%d != %dx%dx%d", out.C, out.H, out.W, in.C, in.H/2, in.W/2))
	}
	p.fan = fanArgs{in: in, out: out}
	parallel.For(in.C, 1, p.fn)
	p.fan = fanArgs{}
}

// channelRange is the fan-out body: channels [c0, c1) of the call staged
// in p.fan.
//
//sov:hotpath
func (p *QMaxPool2) channelRange(c0, c1 int) {
	for c := c0; c < c1; c++ {
		qpoolChannel(p.fan.in, p.fan.out, c)
	}
}

// qpoolChannel max-pools one channel of int8 codes.
//
//sov:hotpath
func qpoolChannel(in, out *QTensor, c int) {
	for y := 0; y < out.H; y++ {
		top := in.Data[(c*in.H+2*y)*in.W : (c*in.H+2*y+1)*in.W]
		bot := in.Data[(c*in.H+2*y+1)*in.W : (c*in.H+2*y+2)*in.W]
		outRow := out.Data[(c*out.H+y)*out.W : (c*out.H+y+1)*out.W]
		for x := 0; x < out.W; x++ {
			m := top[2*x]
			if v := top[2*x+1]; v > m {
				m = v
			}
			if v := bot[2*x]; v > m {
				m = v
			}
			if v := bot[2*x+1]; v > m {
				m = v
			}
			outRow[x] = m
		}
	}
}

// QGlobalAvgPool averages each channel in the integer domain (rounded
// division by the pixel count); parameters pass through unchanged. Build it
// with NewQGlobalAvgPool, which binds the fan-out body.
type QGlobalAvgPool struct {
	P   QuantParams
	fan fanArgs
	fn  func(c0, c1 int) // p.channelRange, bound once
}

// NewQGlobalAvgPool returns a global-average-pool layer whose parameters
// pass through as p.
func NewQGlobalAvgPool(p QuantParams) *QGlobalAvgPool {
	q := &QGlobalAvgPool{P: p}
	q.fn = q.channelRange
	return q
}

// Name implements QLayer.
func (*QGlobalAvgPool) Name() string { return "qgap" }

// OutShape implements QLayer.
func (*QGlobalAvgPool) OutShape(c, _, _ int) (int, int, int) { return c, 1, 1 }

// OutParams implements QLayer.
func (p *QGlobalAvgPool) OutParams() QuantParams { return p.P }

// ForwardInto implements QLayer.
//
//sov:hotpath
func (p *QGlobalAvgPool) ForwardInto(in, out *QTensor) {
	if out.C != in.C || out.H != 1 || out.W != 1 {
		panic(fmt.Sprintf("nn: qgap output shape %dx%dx%d != %dx1x1", out.C, out.H, out.W, in.C))
	}
	p.fan = fanArgs{in: in, out: out}
	parallel.For(in.C, 4, p.fn)
	p.fan = fanArgs{}
}

// channelRange is the fan-out body: channels [c0, c1) of the call staged
// in p.fan.
//
//sov:hotpath
func (p *QGlobalAvgPool) channelRange(c0, c1 int) {
	in, out := p.fan.in, p.fan.out
	n := int32(in.H * in.W)
	for c := c0; c < c1; c++ {
		out.Data[c] = qgapChannel(in, c, n)
	}
}

// qgapChannel sums one channel and divides with round-half-away-from-zero.
//
//sov:hotpath
func qgapChannel(in *QTensor, c int, n int32) int8 {
	var sum int32
	for _, v := range in.Data[c*in.H*in.W : (c+1)*in.H*in.W] {
		sum += int32(v)
	}
	if sum >= 0 {
		return satInt8((2*sum + n) / (2 * n))
	}
	return satInt8(-((2*(-sum) + n) / (2 * n)))
}

// QFC is the fused int8 fully-connected layer: dot product + bias + ReLU +
// requantize, with the zero-point folded into the bias (every input element
// is always valid, so the fold is exact everywhere). The dot products run as
// SWAR pair-dots (swar.go): two MACs per 64-bit multiply against weight rows
// packed once at construction.
type QFC struct {
	In, Out    int
	Weights    []int8
	foldedBias []int32
	InP, OutP  QuantParams
	WScale     float32
	ReLU       bool
	rq         requant
	// wpack holds each weight row as np reversed biased pair words; rowConst
	// folds the bias and the constant terms of the pair-dot identity, so the
	// kernel only subtracts 128·Σu at the end.
	np       int
	wpack    []uint64
	rowConst []int64
	// xpack holds the packed input pairs (grown on first use, reused
	// forever), read by every tile of the fan-out.
	xpack []uint64
	// fan stages the current call for quadFn (f.quadRange, bound once).
	fan    fanArgs
	quadFn func(q0, q1 int)
}

// NewQFC quantizes a float FC layer for the given activation quantizations.
func NewQFC(f *FC, in, out QuantParams) *QFC {
	w, ws := quantizeWeights(f.Weights)
	q := &QFC{In: f.In, Out: f.Out, Weights: w, InP: in, OutP: out, WScale: ws, ReLU: f.ReLU}
	accScale := in.Scale * ws
	bias := quantizeBias(f.Bias, accScale)
	q.foldedBias = make([]int32, f.Out)
	q.np = swarPairs(f.In)
	q.wpack = make([]uint64, f.Out*q.np)
	q.rowConst = make([]int64, f.Out)
	for o := 0; o < f.Out; o++ {
		row := w[o*f.In : (o+1)*f.In]
		var wsum int32
		for _, v := range row {
			wsum += int32(v)
		}
		q.foldedBias[o] = bias[o] - in.Zero*wsum
		wsumB := packWeightPairsInto(q.wpack[o*q.np:(o+1)*q.np], row)
		q.rowConst[o] = swarRowConst(q.foldedBias[o], wsumB, q.np)
	}
	q.rq = newRequant(float64(accScale)/float64(out.Scale), out.Zero, f.ReLU)
	q.quadFn = q.quadRange
	return q
}

// Name implements QLayer.
func (f *QFC) Name() string { return fmt.Sprintf("qfc/%d->%d", f.In, f.Out) }

// OutShape implements QLayer.
func (f *QFC) OutShape(_, _, _ int) (int, int, int) { return f.Out, 1, 1 }

// OutParams implements QLayer.
func (f *QFC) OutParams() QuantParams { return f.OutP }

// ForwardInto implements QLayer. The int8 input row is packed into SWAR
// pair words once, then output rows are computed four at a time so every
// packed load feeds four weight rows and each 64-bit multiply retires two
// MACs. Output rows are independent integer dot products — exact for any
// worker count.
//
//sov:hotpath
func (f *QFC) ForwardInto(in, out *QTensor) {
	if len(in.Data) != f.In {
		panic(fmt.Sprintf("nn: qfc input %d != %d", len(in.Data), f.In))
	}
	if len(out.Data) != f.Out {
		panic(fmt.Sprintf("nn: qfc output %d != %d", len(out.Data), f.Out))
	}
	if cap(f.xpack) < f.np {
		//sovlint:ignore hotalloc first-call scratch growth; warm passes reuse the packed input row
		f.xpack = make([]uint64, f.np)
	}
	xp := f.xpack[:f.np]
	sumU := packPairsInto(xp, in.Data)
	quads := f.Out / 4
	f.fan = fanArgs{out: out, sumU: sumU}
	parallel.For(quads, 4, f.quadFn)
	f.fan = fanArgs{}
	f.swarTail(xp, sumU, 4*quads, out.Data)
}

// quadRange is the fan-out body: output quads [q0, q1) of the call staged
// in f.fan, against the packed input row in f.xpack.
//
//sov:hotpath
func (f *QFC) quadRange(q0, q1 int) {
	xp := f.xpack[:f.np]
	for q := q0; q < q1; q++ {
		f.swarRowQuad(xp, f.fan.sumU, 4*q, f.fan.out.Data)
	}
}

// swarTail finishes the ≤3 output rows left over by the quad sweep.
//
//sov:hotpath
func (f *QFC) swarTail(xp []uint64, sumU int64, o int, dst []int8) {
	for ; o < f.Out; o++ {
		dst[o] = f.swarRow(xp, sumU, o)
	}
}

// swarRowQuad computes four fused output elements against the packed input
// row: each packed load feeds four weight rows and every multiply retires
// two MACs via the pair-dot identity (swar.go), so both the load traffic and
// the multiply count per MAC halve relative to the widened-int32 sweep.
//
//sov:hotpath
func (f *QFC) swarRowQuad(xp []uint64, sumU int64, o int, dst []int8) {
	np := f.np
	r0 := f.wpack[o*np : (o+1)*np]
	r1 := f.wpack[(o+1)*np : (o+2)*np]
	r2 := f.wpack[(o+2)*np : (o+3)*np]
	r3 := f.wpack[(o+3)*np : (o+4)*np]
	xp = xp[:len(r0)]
	r1 = r1[:len(r0)]
	r2 = r2[:len(r0)]
	r3 = r3[:len(r0)]
	var a, b, c, d uint64
	for i, x := range xp {
		a += (x * r0[i]) >> 32
		b += (x * r1[i]) >> 32
		c += (x * r2[i]) >> 32
		d += (x * r3[i]) >> 32
	}
	base := -128 * sumU
	dst[o] = f.rq.apply(int32(f.rowConst[o] + base + int64(a)))
	dst[o+1] = f.rq.apply(int32(f.rowConst[o+1] + base + int64(b)))
	dst[o+2] = f.rq.apply(int32(f.rowConst[o+2] + base + int64(c)))
	dst[o+3] = f.rq.apply(int32(f.rowConst[o+3] + base + int64(d)))
}

// swarRow computes one fused output element by pair-dot (the ≤3 trailing
// rows of the quad sweep).
//
//sov:hotpath
func (f *QFC) swarRow(xp []uint64, sumU int64, o int) int8 {
	row := f.wpack[o*f.np : (o+1)*f.np]
	xp = xp[:len(row)]
	var a uint64
	for i, x := range xp {
		a += (x * row[i]) >> 32
	}
	return f.rq.apply(int32(f.rowConst[o] - 128*sumU + int64(a)))
}

// QNetwork is an ordered stack of quantized layers with the input tensor's
// quantization.
type QNetwork struct {
	Layers   []QLayer
	InParams QuantParams
}

// ForwardPooled runs the stack with every intermediate activation borrowed
// from the quantized tensor pools; a warm steady state allocates nothing.
// The returned tensor is pooled — release it with PutQTensor (unless it is
// the input itself, returned unchanged for an empty stack).
func (n *QNetwork) ForwardPooled(in *QTensor) *QTensor {
	cur := in
	for _, l := range n.Layers {
		c, h, w := l.OutShape(cur.C, cur.H, cur.W)
		out := GetQTensor(c, h, w, l.OutParams())
		l.ForwardInto(cur, out)
		if cur != in {
			PutQTensor(cur)
		}
		cur = out
	}
	return cur
}

// OutParams returns the quantization of the network's output tensor.
func (n *QNetwork) OutParams() QuantParams {
	if len(n.Layers) == 0 {
		return n.InParams
	}
	return n.Layers[len(n.Layers)-1].OutParams()
}

// QuantizeNetwork converts a float network into a fused int8 network.
// calib is a representative input: each activation's quantization is fitted
// to its observed range on the calibration pass (weights quantize
// symmetrically per tensor; biases land in the int32 accumulator domain).
// The float network is left untouched.
func QuantizeNetwork(net *Network, calib *Tensor) *QNetwork {
	qn := &QNetwork{}
	lo, hi := tensorRange(calib)
	cur := ChooseQuantParams(lo, hi)
	qn.InParams = cur
	act := calib
	for _, l := range net.Layers {
		out := l.Forward(act)
		switch t := l.(type) {
		case *Conv2D:
			olo, ohi := tensorRange(out)
			op := ChooseQuantParams(olo, ohi)
			qn.Layers = append(qn.Layers, NewQConv2D(t, cur, op))
			cur = op
		case *FC:
			olo, ohi := tensorRange(out)
			op := ChooseQuantParams(olo, ohi)
			qn.Layers = append(qn.Layers, NewQFC(t, cur, op))
			cur = op
		case MaxPool2:
			qn.Layers = append(qn.Layers, NewQMaxPool2(cur))
		case GlobalAvgPool:
			qn.Layers = append(qn.Layers, NewQGlobalAvgPool(cur))
		default:
			panic("nn: cannot quantize layer " + l.Name())
		}
		act = out
	}
	return qn
}
