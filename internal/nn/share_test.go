package nn

import (
	"bytes"
	"sync"
	"testing"

	"sov/internal/parallel"
)

// qbytes returns a quantized tensor's codes as bytes for comparison.
func qbytes(t *QTensor) []byte {
	b := make([]byte, len(t.Data))
	for i, v := range t.Data {
		b[i] = byte(v)
	}
	return b
}

// TestQNetworkShareCloneConcurrentForward forwards two ShareClones of one
// quantized classifier at the same time on the parallel path, each on its
// own input, and holds every output to the original's bytes for that input.
// The classifier covers every quantized layer type and both conv backends
// (direct and GEMM). A clone whose fan-out body stayed bound to the
// original would read the original's staged operands: a data race (caught
// under -race) that computes from the wrong tensors.
func TestQNetworkShareCloneConcurrentForward(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	cl := NewClassifier(32, 32, 4, 42)
	qn := QuantizeNetwork(cl.Net, calibInput(1, 32, 32, 3))

	const clones, rounds = 2, 20
	inputs := make([]*QTensor, clones)
	want := make([][]byte, clones)
	for i := range inputs {
		inputs[i] = NewQTensor(1, 32, 32, qn.InParams)
		QuantizeTensorInto(inputs[i], calibInput(1, 32, 32, int64(100+i)))
		out := qn.ForwardPooled(inputs[i])
		want[i] = qbytes(out)
		PutQTensor(out)
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the two probe inputs give the same output; the test could not tell them apart")
	}

	got := make([][]byte, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net := qn.ShareClone()
			for r := 0; r < rounds; r++ {
				out := net.ForwardPooled(inputs[i])
				b := qbytes(out)
				PutQTensor(out)
				if !bytes.Equal(b, want[i]) {
					got[i] = b
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if b != nil {
			t.Fatalf("clone %d output %v, want the original's %v", i, b, want[i])
		}
	}
}

// TestQNetworkShareCloneLayersAreDistinct: every clone layer is a new
// instance (the pooling layers included), so no fan-out state is shared
// with the original.
func TestQNetworkShareCloneLayersAreDistinct(t *testing.T) {
	cl := NewClassifier(32, 32, 4, 42)
	qn := QuantizeNetwork(cl.Net, calibInput(1, 32, 32, 3))
	cp := qn.ShareClone()
	for i, l := range qn.Layers {
		if cp.Layers[i] == l {
			t.Fatalf("layer %d (%s) is shared, not cloned", i, l.Name())
		}
	}
}
