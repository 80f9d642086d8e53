package nn

import "fmt"

// Cross-instance weight sharing (DESIGN.md §11). A fleet shard runs the
// same quantized detector for every vehicle it owns, but the quantized
// layers carry per-instance mutable state (biased-byte input buffers, FC
// input packs, and the staged operands of the current fan-out) that makes
// one model unsafe to forward from two goroutines at once. ShareClone
// splits the two concerns: the clone aliases every read-only tensor — int8
// weights, folded biases, SWAR constants, packed GEMM B panels, FC pair
// words, the sigmoid LUT — and gets its own mutable state: scratch that
// regrows privately on the clone's first forward, and fan-out bodies bound
// to the clone itself. (A copied method value would keep running on the
// original's staged operands: a data race that computes from the wrong
// tensors.) N shards therefore pay one copy of the weight panels (they
// stay cache-resident across the whole fleet batch) plus N small scratch
// sets.

// ShareClone returns a QConv2D that shares the receiver's weights, biases,
// requantization constants, and packed GEMM B panels, with private scratch
// and fan-out state. Safe to forward concurrently with the original.
func (c *QConv2D) ShareClone() *QConv2D {
	cp := *c
	cp.ubuf = nil
	cp.fan = fanArgs{}
	cp.bind()
	return &cp
}

// ShareClone returns a QFC that shares the receiver's weights and packed
// pair words, with a private input-pack buffer and fan-out state. Safe to
// forward concurrently with the original.
func (f *QFC) ShareClone() *QFC {
	cp := *f
	cp.xpack = nil
	cp.fan = fanArgs{}
	cp.quadFn = cp.quadRange
	return &cp
}

// ShareClone returns a QNetwork whose layers are ShareClones of the
// receiver's: weight-bearing layers alias their weights, and every layer —
// the pooling layers included — gets its own fan-out state. Unknown layer
// types panic: silently sharing a layer with hidden mutable state would be
// a data race, not a fallback.
func (n *QNetwork) ShareClone() *QNetwork {
	out := &QNetwork{Layers: make([]QLayer, len(n.Layers)), InParams: n.InParams}
	for i, l := range n.Layers {
		switch t := l.(type) {
		case *QConv2D:
			out.Layers[i] = t.ShareClone()
		case *QFC:
			out.Layers[i] = t.ShareClone()
		case *QMaxPool2:
			out.Layers[i] = NewQMaxPool2(t.P)
		case *QGlobalAvgPool:
			out.Layers[i] = NewQGlobalAvgPool(t.P)
		default:
			panic(fmt.Sprintf("nn: cannot share-clone layer %s", l.Name()))
		}
	}
	return out
}

// ShareClone returns a QYOLOHead sharing the receiver's weights and
// sigmoid table, with private per-layer scratch. Each fleet shard forwards
// its clone concurrently with the others while all of them stream the same
// weight panels.
func (y *QYOLOHead) ShareClone() *QYOLOHead {
	cp := *y
	cp.Backbone = y.Backbone.ShareClone()
	cp.Head = y.Head.ShareClone()
	return &cp
}
