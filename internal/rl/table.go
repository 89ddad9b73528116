package rl

import (
	"encoding/binary"
	"hash/fnv"

	"simsub/internal/nn"
)

// This file is the distilled table-lookup policy: the DQN state space is
// only 2–3 similarity components, each bounded in [0, 1] (Θ = 1/(1+d), with
// Θbest = 0 before any candidate is recorded), so the greedy policy can be
// compiled onto a dense grid once and served as an O(1) array lookup — no
// matrix products at query time at all. Compilation validates the table
// against the network it distills (the fidelity contract of DESIGN.md):
// every cell is probed at its corners as well as its center, and the
// fraction of probes whose network action disagrees with the cell's stored
// action is reported as the divergence rate, so an operator opting in via
// -policy-compile sees exactly how faithful the compiled surface is before
// it serves traffic.

// Table-compilation bounds. MinTableResolution keeps cells from being so
// coarse the table is a different policy; MaxTableCells caps the memory of
// a compile request (actions are one byte per cell).
const (
	MinTableResolution = 2
	MaxTableCells      = 1 << 24
)

// TablePolicy is a compiled greedy policy: the state hypercube [0,1]^dim
// quantized at Resolution cells per dimension, with the network's greedy
// action precomputed for every cell center. It carries the same MDP shape
// metadata as the Policy it was compiled from, serves actions without
// allocation, and is safe for concurrent use (the table is immutable).
type TablePolicy struct {
	// K, UseSuffix, SimplifyState mirror the source Policy's MDP shape.
	K             int
	UseSuffix     bool
	SimplifyState bool
	// Resolution is the number of grid cells per state dimension.
	Resolution int
	// Actions holds the greedy action per cell, row-major over the state
	// dimensions (first dimension varies slowest).
	Actions []uint8
	// Divergence is the action-divergence rate measured at compile time:
	// the fraction of validation probes (cell corners and centers) where
	// the network's greedy action differs from the table's.
	Divergence float64
}

// StateDim returns the width of the states the table consumes.
func (t *TablePolicy) StateDim() int { return StateDim(t.UseSuffix) }

// NumActions returns the action-space size.
func (t *TablePolicy) NumActions() int { return 2 + t.K }

// cell maps one state component to its grid cell index, clamping values
// outside [0, 1] (Θ components cannot leave it, but a hostile state must
// not index out of bounds).
func (t *TablePolicy) cell(v float64) int {
	if !(v > 0) { // also catches NaN
		return 0
	}
	c := int(v * float64(t.Resolution))
	if c >= t.Resolution {
		c = t.Resolution - 1
	}
	return c
}

// Action returns the table's greedy action for the state.
func (t *TablePolicy) Action(state []float64) int {
	idx := 0
	for _, v := range state[:t.StateDim()] {
		idx = idx*t.Resolution + t.cell(v)
	}
	return int(t.Actions[idx])
}

// Fingerprint content-hashes the table (shape metadata plus every cell
// action), so two tables answer queries identically whenever their
// fingerprints match. The engine folds it into its policy fingerprint:
// compiling, recompiling at another resolution, or dropping the table all
// change the serving fingerprint, keeping hot-swap cache invalidation
// sound.
func (t *TablePolicy) Fingerprint() uint64 {
	h := fnv.New64a()
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(t.K))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(t.Resolution))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(boolBit(t.UseSuffix)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(boolBit(t.SimplifyState)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(t.StateDim()))
	h.Write(hdr[:])
	h.Write(t.Actions)
	return h.Sum64()
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Compile distills a policy's greedy surface onto a dense grid with the
// given per-dimension resolution. It refuses ill-shaped input with a
// *PolicyError before touching the network: an invalid policy (nil,
// inconsistent shape, non-finite weights — Policy.Validate's checks), a
// resolution below MinTableResolution, or a grid exceeding MaxTableCells.
// Every cell's action is the network's greedy action at the cell center,
// computed through the batched inference path; validation then probes each
// cell's corners too and reports the divergence rate on the returned
// table. Compile never modifies p.
func Compile(p *Policy, resolution int) (*TablePolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if resolution < MinTableResolution {
		return nil, policyErrf("table resolution %d below the minimum %d", resolution, MinTableResolution)
	}
	dim := p.StateDim()
	cells := 1
	for d := 0; d < dim; d++ {
		if cells > MaxTableCells/resolution {
			return nil, policyErrf("table of %d^%d cells exceeds the maximum %d", resolution, dim, MaxTableCells)
		}
		cells *= resolution
	}
	t := &TablePolicy{
		K:             p.K,
		UseSuffix:     p.UseSuffix,
		SimplifyState: p.SimplifyState,
		Resolution:    resolution,
		Actions:       make([]uint8, cells),
	}

	scratch := nn.NewInferScratch()
	defer scratch.Release()
	// Fill: one batched argmax pass per slab of cell centers.
	const slab = 4096
	states := make([]float64, slab*dim)
	actions := make([]int, slab)
	coord := make([]int, dim)
	for base := 0; base < cells; base += slab {
		b := min(slab, cells-base)
		for i := 0; i < b; i++ {
			cellCoords(base+i, resolution, coord)
			for d := 0; d < dim; d++ {
				states[i*dim+d] = (float64(coord[d]) + 0.5) / float64(resolution)
			}
		}
		p.Net.InferBatchArgmax(scratch, states[:b*dim], b, actions)
		for i := 0; i < b; i++ {
			t.Actions[base+i] = uint8(actions[i])
		}
	}

	// Validate: probe every cell at its 2^dim corners (nudged inside the
	// cell so the probe indexes back to it) and count network/table action
	// disagreements. Deterministic, so the reported rate is reproducible.
	corners := 1 << dim
	probes := 0
	diverged := 0
	probeStates := make([]float64, slab*dim)
	probeActions := make([]int, slab)
	pending := 0
	pendingCell := make([]int, slab)
	flush := func() {
		if pending == 0 {
			return
		}
		p.Net.InferBatchArgmax(scratch, probeStates[:pending*dim], pending, probeActions)
		for i := 0; i < pending; i++ {
			if uint8(probeActions[i]) != t.Actions[pendingCell[i]] {
				diverged++
			}
		}
		probes += pending
		pending = 0
	}
	inset := 1.0 / (16 * float64(resolution)) // keep corner probes inside their cell
	for c := 0; c < cells; c++ {
		cellCoords(c, resolution, coord)
		for k := 0; k < corners; k++ {
			for d := 0; d < dim; d++ {
				lo := float64(coord[d]) / float64(resolution)
				hi := float64(coord[d]+1) / float64(resolution)
				if k&(1<<d) == 0 {
					probeStates[pending*dim+d] = lo + inset
				} else {
					probeStates[pending*dim+d] = hi - inset
				}
			}
			pendingCell[pending] = c
			pending++
			if pending == slab {
				flush()
			}
		}
	}
	flush()
	if probes > 0 {
		t.Divergence = float64(diverged) / float64(probes)
	}
	return t, nil
}

// cellCoords decodes a row-major cell index into per-dimension coordinates.
func cellCoords(idx, resolution int, coord []int) {
	for d := len(coord) - 1; d >= 0; d-- {
		coord[d] = idx % resolution
		idx /= resolution
	}
}
