package engine

import (
	"container/heap"
	"context"
	"math"
	"sync/atomic"

	"simsub/internal/core"
)

// publishedKth exposes the stream collector's running global k-th-best
// distance to the shard scanners: the collector (single goroutine, owner of
// the authoritative heap) stores it after every heap change, the scanners
// read it lock-free before each candidate. A wire-propagated bound caps the
// published threshold from the start (see Query.Bound); it is fixed before
// the scanners launch, so reads need no synchronization. It implements
// core.Thresholder.
type publishedKth struct {
	bits  atomic.Uint64
	bound float64
}

// newPublishedKth builds the publisher, initially at bound (+Inf when the
// query carries none).
func newPublishedKth(bound float64) *publishedKth {
	p := &publishedKth{bound: bound}
	p.bits.Store(math.Float64bits(bound))
	return p
}

func (p *publishedKth) set(d float64) {
	if d > p.bound {
		d = p.bound
	}
	p.bits.Store(math.Float64bits(d))
}

// Threshold implements core.Thresholder.
func (p *publishedKth) Threshold() float64 { return math.Float64frombits(p.bits.Load()) }

// RunningTopK is a bounded max-heap of the k best matches seen so far,
// ordered by core.RankBefore with the global trajectory ID as identifier —
// the streaming counterpart of core's per-shard top-k heap. The engine's
// streaming collector keeps one per query; the distributed router keeps
// one to decide which per-node provisional matches to forward. Because
// shards order equal-distance matches by shard-local index and global IDs
// are assigned round-robin, its sorted drain matches MergeTopK's ranking
// exactly. It is not safe for concurrent use.
type RunningTopK struct {
	k  int
	ms rankHeap
}

// NewRunningTopK builds an empty running top-k of size k.
func NewRunningTopK(k int) *RunningTopK { return &RunningTopK{k: k} }

// rankHeap is a max-heap by rank: the worst retained match on top.
type rankHeap []Match

func rankBefore(a, b Match) bool {
	return core.RankBefore(a.Result.Dist, a.TrajID, a.Result.Interval,
		b.Result.Dist, b.TrajID, b.Result.Interval)
}

func (h rankHeap) Len() int           { return len(h) }
func (h rankHeap) Less(i, j int) bool { return rankBefore(h[j], h[i]) }
func (h rankHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *rankHeap) Push(x any)        { *h = append(*h, x.(Match)) }
func (h *rankHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}

// Offer reports whether m entered the running top-k.
func (t *RunningTopK) Offer(m Match) bool {
	switch {
	case t.k <= 0:
		return false
	case len(t.ms) < t.k:
		heap.Push(&t.ms, m)
		return true
	case rankBefore(m, t.ms[0]):
		t.ms[0] = m
		heap.Fix(&t.ms, 0)
		return true
	}
	return false
}

// Kth reports the running k-th-best distance once k matches are held.
func (t *RunningTopK) Kth() (float64, bool) {
	if len(t.ms) < t.k || t.k <= 0 {
		return 0, false
	}
	return t.ms[0].Result.Dist, true
}

// Sorted drains the heap into an ascending ranking.
func (t *RunningTopK) Sorted() []Match {
	out := make([]Match, len(t.ms))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&t.ms).(Match)
	}
	return out
}

// TopKStream answers q like TopK but delivers provisional matches while
// the scan is still running: emit is invoked — always from a single
// goroutine — for every match that enters the running global top-k, so the
// first answers reach the caller long before the last shard finishes. The
// returned slice is the authoritative final ranking, identical to TopK's
// answer for the same query; a provisionally emitted match may be absent
// from it if later candidates displaced it. An emit error aborts the
// search and is returned unchanged. On a cache hit the final page is
// emitted match by match before the call returns.
func (e *Engine) TopKStream(ctx context.Context, q Query, emit func(Match) error) (matches []Match, cached bool, err error) {
	_, page, cached, _, err := e.topK(ctx, q, emit)
	return page, cached, err
}

// collect is the streaming scan stage. Shard scanners funnel every
// candidate's match into one channel; the collector (the calling
// goroutine) maintains the running global top-k, publishes its k-th best
// back to the scanners, and emits each match the moment it enters — no
// per-shard completion barrier between a candidate being searched and its
// match streaming out. Its final ranking is scatter's, byte for byte.
func (e *Engine) collect(ctx context.Context, alg core.Algorithm, q Query, emit func(Match) error) ([]Match, core.PruneStats, error) {
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	bound := math.Inf(1)
	if q.Bound != nil {
		bound = *q.Bound
	}
	kth := newPublishedKth(bound)
	annq := e.annQueryFor(q)
	stats := make([]core.PruneStats, len(e.shards))
	// the buffer lets scanners run a little ahead of a slow listener
	// without blocking on every match
	ch := make(chan Match, 64)
	var scanErr error
	go func() {
		scanErr = e.forShards(scanCtx, func(i int, s *shard) error {
			db, src := s.scanView(annq)
			if db == nil {
				return nil
			}
			return db.ScanPrunedSourceCtx(scanCtx, alg, q.Q, q.Filter, kth, &stats[i], src, func(m core.Match) error {
				select {
				case ch <- Match{TrajID: db.Traj(m.TrajIndex).ID, Result: m.Result}:
					return nil
				case <-scanCtx.Done():
					return scanCtx.Err()
				}
			})
		})
		close(ch)
	}()

	top := NewRunningTopK(q.K)
	var emitErr error
	for m := range ch {
		if emitErr != nil || !top.Offer(m) {
			continue // after an emit error: drain so the cancelled scanners can exit
		}
		if d, ok := top.Kth(); ok {
			kth.set(d)
		}
		if emitErr = emit(m); emitErr != nil {
			cancel()
		}
	}
	if emitErr != nil {
		return nil, core.PruneStats{}, emitErr
	}
	if scanErr != nil {
		return nil, core.PruneStats{}, scanErr
	}
	return top.Sorted(), sumPrune(stats), nil
}
