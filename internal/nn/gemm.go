package nn

import "sov/internal/parallel"

// Per-tile scratch of the parallel int8 kernels: laneWords holds packed
// SWAR lane words (GEMM A panels, QFC input rows), accRows the int32
// column-sum and accumulator rows.
var (
	laneWords parallel.SlicePool[uint64]
	accRows   parallel.SlicePool[int32]
)

// im2col + register-blocked integer GEMM backend for QConv2D (DESIGN.md
// §10). The convolution reshapes into C[OutC × P] = W[OutC × kd] · A[kd × P]
// with kd = InC·K·K and P = OH·OW output pixels. Weight panels (B) pack once
// at construction into reversed biased pair words (swar.go); activation
// panels (A) pack per column block into pooled scratch, with the input's
// zero-point code standing in for out-of-bounds taps so border columns are
// bit-exact with the direct path's edge handling. The 4×4 micro-kernel keeps
// sixteen pair-dot accumulators live across the shared kd sweep: every A
// load feeds four weight rows, every B load four pixels, and every 64-bit
// multiply retires two MACs.
//
// The direct tap-major path stays the better kernel when the dot product is
// short (pack overhead dominates) or the output plane is tiny (panels don't
// amortize); gemmEligible gates construction and gemmOK dispatches per call.

const (
	// gemmMinDot is the dispatcher's im2col depth floor: below kd = InC·K·K
	// of ~3 input channels of a 3×3 kernel, packing every activation into
	// pair words costs more than the direct SWAR interior saves.
	gemmMinDot = 48
	// gemmMinPixels is the dispatcher's output-plane floor: tiny grids (the
	// 1×1 detection head's 7×9 cells) re-pack weights' worth of A panel per
	// handful of outputs and lose to the direct path.
	gemmMinPixels = 128
	// gemmColBlock is the im2col column-block width (output pixels per A
	// panel). Chosen by the cachesim sweep in tiles_test.go: the block's
	// pair words (np·8·gemmColBlock bytes) plus the full B panel set must
	// stay cache-resident together — then the B panels survive from block
	// to block and only the A gather misses. On the perception-shaped GEMM
	// stream the sweep's miss-rate optimum sits at 32 columns (18 KB of A
	// panel + 18 KB of B); wall-clock is flat from 32 to 128 on the
	// ALU-bound kernel, so the traffic optimum ships (DESIGN.md §10).
	gemmColBlock = 32
)

// gemmState is QConv2D's GEMM backend: the construction-time weight panels.
// A panels and Σu rows are per-tile scratch from the pools.
type gemmState struct {
	np   int      // pair words per kd-length dot product
	mpad int      // OutC rounded up to the 4-row panel height
	b    []uint64 // packed B panels, [mpad/4] panels of [np][4] words
	rowC []int64  // per-channel pair-dot constant (swarRowConst)
}

// gemmEligible reports whether the layer shape ever dispatches to GEMM.
func (c *QConv2D) gemmEligible() bool {
	return c.InC*c.K*c.K >= gemmMinDot
}

// gemmOK is the per-call dispatcher: the backend must be built and the
// output plane large enough to amortize the A-panel packing.
func (c *QConv2D) gemmOK(oh, ow int) bool {
	return c.gemm.b != nil && oh*ow >= gemmMinPixels
}

// initGEMM packs the weight panels. Row panels hold four output channels at
// word stride 4 — the micro-kernel streams one panel per j step; channels
// past OutC pad with zero words whose products land in discarded
// accumulators.
func (c *QConv2D) initGEMM() {
	if !c.gemmEligible() {
		return
	}
	kd := c.InC * c.K * c.K
	np := swarPairs(kd)
	mpad := (c.OutC + 3) &^ 3
	c.gemm.np = np
	c.gemm.mpad = mpad
	c.gemm.b = make([]uint64, mpad*np)
	c.gemm.rowC = make([]int64, c.OutC)
	for o := 0; o < c.OutC; o++ {
		row := c.Weights[o*kd : (o+1)*kd]
		panel := c.gemm.b[(o/4)*np*4:]
		r := o % 4
		var wsumB int64
		for j := 0; j < np; j++ {
			a := uint64(uint8(row[2*j]) ^ 0x80)
			b := uint64(swarPadW)
			if 2*j+1 < kd {
				b = uint64(uint8(row[2*j+1]) ^ 0x80)
			}
			panel[j*4+r] = b | a<<32
			wsumB += int64(a + b)
		}
		c.gemm.rowC[o] = swarRowConst(c.foldedBias[o], wsumB, np)
	}
}

// forwardGEMM runs the convolution as a blocked integer GEMM. Column blocks
// are independent (each owns its output columns across every channel), so
// they fan out across the worker pool; the integer arithmetic is exact, so
// the output is byte-identical to the direct path and to any worker count.
//
//sov:hotpath
func (c *QConv2D) forwardGEMM(in, out *QTensor, oh, ow int) {
	c.packInput(in)
	c.fan = fanArgs{in: in, out: out, oh: oh, ow: ow}
	parallel.For(ceilDiv(oh*ow, gemmColBlock), 1, c.blockFn)
	c.fan = fanArgs{}
}

// blockRange is the GEMM fan-out body: column blocks [b0, b1) of the call
// staged in c.fan, over one pooled A panel and Σu row.
//
//sov:hotpath
func (c *QConv2D) blockRange(b0, b1 int) {
	a := &c.fan
	p := a.oh * a.ow
	ap := laneWords.Get(c.gemm.np * gemmColBlock)
	su := accRows.Get(gemmColBlock)
	for blk := b0; blk < b1; blk++ {
		c.gemmBlock(a.out, a.in.H, a.in.W, a.ow, p, blk*gemmColBlock, ap, su)
	}
	accRows.Put(su)
	laneWords.Put(ap)
}

// gemmBlock packs one im2col column block and multiplies it against every
// weight panel, requantizing straight into the output tensor.
//
//sov:hotpath
func (c *QConv2D) gemmBlock(out *QTensor, inH, inW, ow, p, colBase int, ap []uint64, su []int32) {
	cols := gemmColBlock
	if colBase+cols > p {
		cols = p - colBase
	}
	groups := (cols + 3) / 4
	np := c.gemm.np
	upad := uint8(int8(c.zeroIn)) ^ 0x80
	for g := 0; g < groups; g++ {
		panel := ap[g*np*4 : (g+1)*np*4]
		for ci := 0; ci < 4; ci++ {
			col := colBase + g*4 + ci
			if col >= p {
				// Phantom columns of the last group: all-zero pair words
				// multiply to nothing and are never written back.
				for j := 0; j < np; j++ {
					panel[j*4+ci] = 0
				}
				su[g*4+ci] = 0
				continue
			}
			su[g*4+ci] = c.packACol(panel, ci, col, ow, inH, inW, upad)
		}
	}
	rq := c.rq
	for rb := 0; rb < c.gemm.mpad/4; rb++ {
		bp := c.gemm.b[rb*np*4 : (rb+1)*np*4]
		for g := 0; g < groups; g++ {
			a := ap[g*np*4 : (g+1)*np*4]
			var s00, s01, s02, s03 uint64
			var s10, s11, s12, s13 uint64
			var s20, s21, s22, s23 uint64
			var s30, s31, s32, s33 uint64
			for j := 0; j < np; j++ {
				x0 := a[j*4]
				x1 := a[j*4+1]
				x2 := a[j*4+2]
				x3 := a[j*4+3]
				b0 := bp[j*4]
				b1 := bp[j*4+1]
				b2 := bp[j*4+2]
				b3 := bp[j*4+3]
				s00 += (x0 * b0) >> 32
				s01 += (x1 * b0) >> 32
				s02 += (x2 * b0) >> 32
				s03 += (x3 * b0) >> 32
				s10 += (x0 * b1) >> 32
				s11 += (x1 * b1) >> 32
				s12 += (x2 * b1) >> 32
				s13 += (x3 * b1) >> 32
				s20 += (x0 * b2) >> 32
				s21 += (x1 * b2) >> 32
				s22 += (x2 * b2) >> 32
				s23 += (x3 * b2) >> 32
				s30 += (x0 * b3) >> 32
				s31 += (x1 * b3) >> 32
				s32 += (x2 * b3) >> 32
				s33 += (x3 * b3) >> 32
			}
			sums := [16]uint64{
				s00, s01, s02, s03,
				s10, s11, s12, s13,
				s20, s21, s22, s23,
				s30, s31, s32, s33,
			}
			for r := 0; r < 4; r++ {
				o := rb*4 + r
				if o >= c.OutC {
					break
				}
				rc := c.gemm.rowC[o]
				obase := o * p
				for ci := 0; ci < 4; ci++ {
					col := colBase + g*4 + ci
					if col >= colBase+cols {
						break
					}
					out.Data[obase+col] = rq.apply(int32(rc - 128*int64(su[g*4+ci]) + int64(sums[r*4+ci])))
				}
			}
		}
	}
}

// packACol gathers one output pixel's kd-length im2col column into pair
// words at panel word offset ci (stride 4) and returns its Σu. Taps outside
// the input read the zero-point code — exactly the zero padding the direct
// path's border handling computes.
//
//sov:hotpath
func (c *QConv2D) packACol(panel []uint64, ci, col, ow, inH, inW int, upad uint8) int32 {
	ub := c.ubuf
	oy, ox := col/ow, col%ow
	iy0 := oy*c.Stride - c.Pad
	ix0 := ox*c.Stride - c.Pad
	var sum int32
	var lo uint64
	j, k := 0, 0
	for ic := 0; ic < c.InC; ic++ {
		base := ic * inH * inW
		for ky := 0; ky < c.K; ky++ {
			iy := iy0 + ky
			rowOK := iy >= 0 && iy < inH
			rowBase := base + iy*inW
			for kx := 0; kx < c.K; kx++ {
				u := uint64(upad)
				if rowOK {
					if ix := ix0 + kx; ix >= 0 && ix < inW {
						u = uint64(ub[rowBase+ix])
					}
				}
				sum += int32(u)
				if k&1 == 0 {
					lo = u
				} else {
					panel[j*4+ci] = lo | u<<32
					j++
				}
				k++
			}
		}
	}
	if k&1 == 1 {
		panel[j*4+ci] = lo | swarPadU<<32
	}
	return sum
}
