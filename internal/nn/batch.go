package nn

import (
	"fmt"
	"sync"
)

// This file is the batched inference path: rl.Compile fills a policy table
// through it one slab of cell centers at a time, and the serving actor runs
// it at b = 1 for allocation-free scalar inference. A batch of B state
// vectors is packed into one row-major B×In matrix, each dense layer
// becomes a single blocked MatMulT against its weight matrix, and the
// final argmax is fused into the output-layer loop.
// Scratch activations come from a sync.Pool, so steady-state batched
// inference performs no allocation at all.
//
// Equivalence contract: for every row, InferBatch computes bit-identical
// outputs to the scalar Infer path. MatMulT accumulates each dot product
// in the same index order as Tensor.MatVec, so no floating-point
// reassociation can make a batched Q value (and hence a greedy action)
// differ from the sequential one.

// MatMulT computes y = x·Wᵀ for a row-major batch: x holds b rows of
// t.Cols values, y receives b rows of t.Rows values. It is the batched
// form of MatVec — row r of y equals MatVec over row r of x, bit for bit —
// blocked over output rows so one weight row streams against all b inputs
// while it is cache-resident. y must not alias x.
func (t *Tensor) MatMulT(x []float64, b int, y []float64) {
	if len(x) != b*t.Cols || len(y) != b*t.Rows {
		panic(fmt.Sprintf("nn: MatMulT shape mismatch: %dx%d with b=%d x[%d] y[%d]",
			t.Rows, t.Cols, b, len(x), len(y)))
	}
	in, out := t.Cols, t.Rows
	for r := 0; r < out; r++ {
		row := t.W[r*in : (r+1)*in]
		// unroll pairs of batch rows against the resident weight row
		i := 0
		for ; i+1 < b; i += 2 {
			x0 := x[i*in : (i+1)*in]
			x1 := x[(i+1)*in : (i+2)*in]
			var s0, s1 float64
			for c, v := range row {
				s0 += v * x0[c]
				s1 += v * x1[c]
			}
			y[i*out+r] = s0
			y[(i+1)*out+r] = s1
		}
		if i < b {
			xi := x[i*in : (i+1)*in]
			var s float64
			for c, v := range row {
				s += v * xi[c]
			}
			y[i*out+r] = s
		}
	}
}

// InferScratch is reusable activation scratch for batched (and repeated
// scalar) forward passes: two flat ping-pong buffers that grow to the
// largest batch×width product seen. Obtain one from NewInferScratch and
// return it with Release; a scratch is single-goroutine.
type InferScratch struct {
	a, b []float64
}

var inferScratchPool = sync.Pool{New: func() any { return &InferScratch{} }}

// NewInferScratch takes a scratch from the pool.
func NewInferScratch() *InferScratch { return inferScratchPool.Get().(*InferScratch) }

// Release returns the scratch to the pool; it must not be used afterwards,
// and any slice returned by InferBatch through it becomes invalid.
func (s *InferScratch) Release() { inferScratchPool.Put(s) }

// grow returns the two buffers resized to at least na and nb values.
func (s *InferScratch) grow(na, nb int) (a, b []float64) {
	if cap(s.a) < na {
		s.a = make([]float64, na)
	}
	if cap(s.b) < nb {
		s.b = make([]float64, nb)
	}
	return s.a[:na], s.b[:nb]
}

// maxWidth returns the widest layer output of the network.
func (m *MLP) maxWidth() int {
	w := m.In()
	for _, l := range m.Layers {
		if o := l.Out(); o > w {
			w = o
		}
	}
	return w
}

// InferBatch runs the network over a packed row-major batch of b input
// rows and returns the b×Out output matrix, valid until the scratch is
// reused or released. Each dense layer is one MatMulT plus a fused
// bias-and-activation sweep; nothing is recorded for Backward, and no
// allocation happens once the scratch has warmed up. Row i of the result
// is bit-identical to Infer over row i of xs.
func (m *MLP) InferBatch(s *InferScratch, xs []float64, b int) []float64 {
	if b <= 0 || len(xs) != b*m.In() {
		panic(fmt.Sprintf("nn: InferBatch shape mismatch: b=%d In=%d xs[%d]", b, m.In(), len(xs)))
	}
	w := m.maxWidth()
	cur, next := s.grow(b*w, b*w)
	cur = cur[:b*m.In()]
	copy(cur, xs)
	for _, l := range m.Layers {
		out := l.Out()
		next = next[:cap(next)]
		l.inferBatchInto(cur, b, next[:b*out])
		cur, next = next[:b*out], cur
	}
	// cur aliases one of the scratch buffers; hand it to the caller read-only
	return cur
}

// inferBatchInto computes the layer over a packed batch: y = act(x·Wᵀ + b).
func (d *Dense) inferBatchInto(x []float64, b int, y []float64) {
	out := d.W.Rows
	d.W.MatMulT(x, b, y)
	for i := 0; i < b; i++ {
		row := y[i*out : (i+1)*out]
		for j := range row {
			row[j] = d.Act.apply(row[j] + d.B.W[j])
		}
	}
}

// InferBatchArgmax is InferBatch fused with a per-row argmax over the
// output layer: actions[i] receives the first index of the maximum output
// of row i — the same first-max-wins rule as a scalar argmax over Infer —
// without materializing the output matrix for the caller. actions must
// hold b values.
func (m *MLP) InferBatchArgmax(s *InferScratch, xs []float64, b int, actions []int) {
	if len(actions) < b {
		panic(fmt.Sprintf("nn: InferBatchArgmax actions[%d] shorter than batch %d", len(actions), b))
	}
	q := m.InferBatch(s, xs, b)
	out := m.Out()
	for i := 0; i < b; i++ {
		row := q[i*out : (i+1)*out]
		best, bi := row[0], 0
		for j := 1; j < out; j++ {
			if row[j] > best {
				best, bi = row[j], j
			}
		}
		actions[i] = bi
	}
}

// InferInto is the zero-allocation scalar inference path: Infer with the
// activations carried in the caller's scratch. The returned slice is valid
// until the scratch is reused or released; it is bit-identical to Infer(x).
func (m *MLP) InferInto(s *InferScratch, x []float64) []float64 {
	return m.InferBatch(s, x, 1)
}
