package transport

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/split"
	"repro/internal/tensor"
)

// The compute stage. Every server round reads and decodes its
// activations and writes its cut gradient on its own session goroutine
// (BSPeer.round); only the BS-half mathematics in between passes
// through the hub. The hub owns no goroutines: an arriving round joins
// a mutex-guarded pending list, and either flushes that list itself or
// parks until another arrival or the window timer does. A flush groups
// the pending rounds by model-state key and hands each group to its
// representative, whose session goroutine runs the group's computation:
// a flushing arrival leads its own group, and every other
// representative is parked in compute anyway. Per-session ordering is
// structural: the lock-step protocol admits at most one in-flight round
// per session.
//
// Coalescing is cross-session micro-batching. A flush fires when
// min(BatchMax, live sessions) rounds are pending or when BatchWindow
// since the first pending round expires, whichever is first; a window
// of 0 flushes every round on arrival (no coalescing). Sessions in one
// group whose parameters and round inputs are *proven* bit-identical
// (compared, never assumed) execute as one forward/backward through the
// group representative's model half; the resulting loss, parameter
// gradients and cut-layer gradient rows are then scattered to every
// member, each of which applies its own optimiser. Because the shared
// computation is exactly the computation each member would have run
// solo, every member's update — and every byte it sends back to its UE
// — is bit-identical to solo execution (the invariant-8 suite pins
// this). Sessions that fail the equality guard simply compute solo
// within the batch, so correctness never depends on the grouping
// heuristic.

// batchKey is the grouping hint for coalesced rounds: sessions sharing
// a config fingerprint (which covers seed, geometry, codec and
// hyper-parameters) and a trained-step count are *candidate* clones.
// The key admits false positives — a custom Provision can hand
// same-fingerprint sessions different datasets — which is why group
// members are additionally verified bitwise before any sharing.
type batchKey struct {
	fp      uint64
	trained int
}

// roundTask carries one session round through the compute stage. Each
// peer owns exactly one, reused round after round.
type roundTask struct {
	peer    *BSPeer
	pooled  *tensor.Tensor
	anchors []int32
	key     batchKey
	shared  bool // scratch for runGroup's partition
	loss    float64
	cut     *tensor.Tensor

	// group is non-empty only while this task is the representative
	// of a flushed group its goroutine has yet to run; its backing
	// array is reused round after round.
	group []*roundTask
	done  chan struct{} // capacity 1; one signal per round
}

// computeHub is the coalescing compute stage of one BSServer.
type computeHub struct {
	// pol resolves the server's current Policy; every arrival reads the
	// coalescing window and batch cap through it, so a PUT /config swap
	// takes effect at the next round without touching rounds already
	// pending. It never affects computed values: the window only decides
	// *when* rounds coalesce, and invariant 8 pins batched results
	// bit-identical to solo for any grouping.
	pol   func() Policy
	store *sessionStore // live-count hint for early flush

	mu      sync.Mutex
	pending []*roundTask
	timer   *time.Timer // the armed window; nil when none

	// sharedRounds counts rounds served by a clone group's shared
	// computation instead of their own — the dedup win the saturation
	// benchmark reports.
	sharedRounds atomic.Int64

	// queue tracks the rounds inside the compute stage — submitted and
	// not yet answered, whether pending or executing in a group. Its
	// peak is the backlog number the fleet soak reports
	// (BSServer.BatchQueueDepth).
	queue metrics.Gauge
}

func newComputeHub(pol func() Policy, store *sessionStore) *computeHub {
	return &computeHub{pol: pol, store: store}
}

// compute runs one round's BS-half step through the stage and returns
// its loss and cut gradient (arena-owned, as for BSPeer.computeStep). It
// blocks on the calling session goroutine until the round's group has
// run — on this goroutine when the round is its group's representative.
func (h *computeHub) compute(peer *BSPeer, anchors []int32, pooled *tensor.Tensor) (float64, *tensor.Tensor) {
	t := peer.task
	if t == nil {
		t = &roundTask{peer: peer, done: make(chan struct{}, 1)}
		peer.task = t
	}
	t.anchors, t.pooled = anchors, pooled
	t.key = batchKey{fp: peer.fp, trained: peer.trained}
	h.queue.Add(1)
	defer h.queue.Add(-1)

	// The window and batch cap are policy-resolved per arrival, so a
	// live reconfiguration binds from the next round on.
	p := h.pol()
	h.mu.Lock()
	h.pending = append(h.pending, t)
	if p.BatchWindow <= 0 || len(h.pending) >= max(1, min(p.BatchMax, h.store.liveCount())) {
		// The arriving round leads its own group: it is running
		// already, so its group computes without a goroutine hand-off.
		last := len(h.pending) - 1
		h.pending[0], h.pending[last] = h.pending[last], h.pending[0]
		h.flushLocked()
	} else if h.timer == nil {
		var tm *time.Timer
		tm = time.AfterFunc(p.BatchWindow, func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.timer == tm { // not already flushed by an arrival
				h.flushLocked()
			}
		})
		h.timer = tm
	}
	h.mu.Unlock()

	<-t.done
	if len(t.group) > 0 {
		h.sharedRounds.Add(runGroup(t.group))
		clear(t.group)
		t.group = t.group[:0]
	}
	return t.loss, t.cut
}

// flushLocked partitions every pending round into same-key groups, each
// led by its first round in pending order, and wakes each group's
// representative to run it. Draining *all* pending groups on every
// flush is what bounds any round's wait to one window, whatever the
// arrival pattern (see batcher_starvation_test.go).
func (h *computeHub) flushLocked() {
	if h.timer != nil {
		h.timer.Stop()
		h.timer = nil
	}
	pending := h.pending
	for len(pending) > 0 {
		rep := pending[0]
		rep.group = append(rep.group[:0], rep)
		rest := pending[:0]
		for _, t := range pending[1:] {
			if t.key == rep.key {
				rep.group = append(rep.group, t)
			} else {
				rest = append(rest, t)
			}
		}
		pending = rest
		rep.done <- struct{}{}
	}
	clear(h.pending)
	h.pending = h.pending[:0]
}

// runGroup executes one coalesced batch of same-key rounds on the
// representative's goroutine: the representative's model half runs the
// batched forward/backward once, and the result is scattered to every
// member whose parameters and inputs are bit-identical to the
// representative's. The equality guard runs *before* the
// representative's optimiser update mutates its parameters; members
// that fail it compute solo. Each member is woken once its result is
// set. Returns the number of rounds served by the shared computation.
func runGroup(g []*roundTask) (shared int64) {
	rep := g[0]
	for _, t := range g[1:] {
		t.shared = slices.Equal(rep.anchors, t.anchors) &&
			tensorBitsEqual(rep.pooled, t.pooled) &&
			split.ParamsBitsEqual(rep.peer.Model.Params(), t.peer.Model.Params())
	}
	rep.loss, rep.cut = rep.peer.computeStep(rep.anchors, rep.pooled)
	for _, t := range g[1:] {
		if t.shared && shareStep(rep, t) {
			shared++
			t.done <- struct{}{}
			continue
		}
		t.loss, t.cut = t.peer.computeStep(t.anchors, t.pooled)
		t.done <- struct{}{}
	}
	return shared
}

// shareStep applies the representative's already-computed round to a
// verified clone member: the member re-derives its own fused input and
// targets (covering its private dataset and normaliser) and, only if
// they too are bit-identical to the representative's, takes the shared
// gradients — copied into its own parameters — and steps its own
// optimiser. Reports false when the member must compute solo after all.
func shareStep(rep, t *roundTask) bool {
	peer := t.peer
	peer.arena.Reset()
	fused := peer.fuse(t.anchors, t.pooled)
	targets := peer.targets(t.anchors)
	if !tensorBitsEqual(fused, rep.peer.lastFused) || !tensorBitsEqual(targets, rep.peer.lastTargets) {
		return false
	}
	if !split.CopyGrads(peer.Model.Params(), rep.peer.Model.Params()) {
		return false
	}
	peer.adam.Step()
	peer.trained++
	peer.lastFused, peer.lastTargets = fused, targets
	t.loss = rep.loss
	t.cut = nil
	if rep.cut != nil {
		c := peer.arena.GetUninit(rep.cut.Shape()...)
		copy(c.Data(), rep.cut.Data())
		t.cut = c
	}
	return true
}

// tensorBitsEqual reports Float64bits equality of two tensors (both nil
// counts as equal). NaNs compare by bit pattern, so an equality here is
// exactly "the same computation would see the same input".
func tensorBitsEqual(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if !a.SameShape(b) {
		return false
	}
	return split.BitsEqual(a.Data(), b.Data())
}
