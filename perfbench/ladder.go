package main

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The layer ladder times the public functions below the traced spans,
// one rung per function, on the workloads' own shapes. A change that
// moves a span should move the rung printed beside it; a speedup the
// rung does not explain is not yet understood.

// Paper shapes: B = 64 sequences of L = 4 frames of 40×40 pixels, so
// the UE half sees B·L = 256 images; the LSTM gate matmul maps the
// per-step input (1600 pixels + 1 RF power with full images, the RF
// power alone for RF-only) onto 4 gates × 32 hidden units.
const (
	ladderB   = 64
	ladderL   = 4
	ladderHW  = 40
	ladderHid = 32
)

// ladderBudget is the time spent timing each rung.
const ladderBudget = 250 * time.Millisecond

type rung struct {
	name     string  // metric name; the unit suffix is part of it
	scale    float64 // nanoseconds per reported unit
	unit     string
	explains string // the span (and workload) it should explain
	nsPerOp  float64
	allocs   float64
}

// timeRung measures op: mean nanoseconds and heap allocations per call,
// after one untimed warm-up call. Op reports the time of the part it
// wants timed (so per-call clean-up can stay outside the timing).
func timeRung(op func(i int) time.Duration) (nsPerOp, allocsPerOp float64) {
	op(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var total time.Duration
	calls := 0
	start := time.Now()
	for calls < 3 || time.Since(start) < ladderBudget {
		calls++
		total += op(calls)
	}
	runtime.ReadMemStats(&ms1)
	return float64(total) / float64(calls), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// timed wraps an op whose whole call is the measured work.
func timed(f func()) func(int) time.Duration {
	return func(int) time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
}

// bsHalf builds the BS model and one round's inputs at a per-step
// input width, and returns a round: forward, MSE, backward, Adam.
func bsHalf(rng *rand.Rand, inDim int) (func(), *split.BSModel, *opt.Adam) {
	cfg := split.DefaultConfig(split.ImageRF, 1)
	m := split.NewBSModel(rng, cfg, inDim)
	adam := opt.NewAdam(m.Params(), cfg.LR, cfg.Beta1, cfg.Beta2)
	seq := tensor.Randn(rng, 1, ladderB, ladderL, inDim)
	target := tensor.Randn(rng, 1, ladderB, 1)
	grad := tensor.New(ladderB, 1)
	return func() {
		nn.ZeroGrads(m.Params())
		pred := m.Forward(seq)
		nn.MSEInto(grad, pred, target)
		m.Backward(grad)
		adam.Step()
	}, m, adam
}

// runLadder times every rung. dir is scratch space for the journal.
func runLadder(dir string) ([]rung, error) {
	rng := rand.New(rand.NewSource(1))
	n := ladderB * ladderL
	fullDim := ladderHW*ladderHW + 1

	// UE conv: 256 single-channel 40×40 images, 3×3 kernel, same padding.
	spec := tensor.Conv2DSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := tensor.Randn(rng, 1, n, 1, ladderHW, ladderHW)
	k := tensor.Randn(rng, 1, 1, 1, 3, 3)
	bias := []float64{0}
	convOut := tensor.New(n, 1, ladderHW, ladderHW)
	gradX, gradK, gradB := tensor.New(n, 1, ladderHW, ladderHW), tensor.New(1, 1, 3, 3), []float64{0}

	// BS gate matmul: (B, D) × (D, 4H) at both input widths.
	mm := func(d int) func() {
		a, b := tensor.Randn(rng, 1, ladderB, d), tensor.Randn(rng, 1, d, 4*ladderHid)
		dst := tensor.New(ladderB, 4*ladderHid)
		return func() { tensor.MatMulInto(dst, a, b) }
	}

	// UE half of the one-pixel scheme: conv, ReLU, 40×40 pooling, and
	// back through them.
	ueCfg := split.DefaultConfig(split.ImageRF, ladderHW)
	ue := split.NewUEModel(rng, ueCfg, &dataset.Dataset{H: ladderHW, W: ladderHW})
	ueGrad := tensor.Randn(rng, 1, n, 1, 1, 1)

	bsFull, bsModel, bsAdam := bsHalf(rng, fullDim)
	bsRF, _, _ := bsHalf(rng, 1)

	// Cut-layer payloads: the full-image activations (~3.3 MB raw) and
	// the one-pixel ones.
	actFull := tensor.Randn(rng, 1, n, 1, ladderHW, ladderHW)
	actOne := tensor.Randn(rng, 1, n, 1, 1, 1)
	raw := compress.ForID(compress.CodecRaw)
	encoded, err := raw.Encode(actFull)
	if err != nil {
		return nil, err
	}
	var encBuf []byte
	var decDst *tensor.Tensor

	// firstErr keeps the first error any rung's calls return.
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	frameRW := func(act *tensor.Tensor) func() {
		var buf bytes.Buffer
		fw, fr := transport.NewFrameWriter(&buf), transport.NewFrameReader(&buf)
		msg := &transport.Message{Type: transport.MsgActivations, Step: 1, Tensor: act, Codec: compress.CodecRaw}
		return func() {
			buf.Reset()
			note(fw.WriteMessage(msg, transport.ProtocolVersion))
			_, err := fr.ReadMessage()
			note(err)
		}
	}

	// Checkpoint of the full-image BS half: serialise, then a journal
	// put (fsync included), keeping only the newest blob.
	var blob bytes.Buffer
	if err := split.SaveTrainState(&blob, 1, split.HalfBS, 1, bsModel.Params(), bsAdam); err != nil {
		return nil, err
	}
	j, err := store.OpenJournal(filepath.Join(dir, "ladder.journal"), store.JournalOptions{})
	if err != nil {
		return nil, err
	}
	defer j.Close()

	rungs := []struct {
		rung
		op func(int) time.Duration
	}{
		{rung{name: "tensor.conv_fwd_ms", explains: spanForward + " (onepixel_serial, fullimage_handover)"},
			timed(func() { tensor.Conv2DInto(convOut, x, k, bias, spec) })},
		{rung{name: "tensor.conv_bwd_ms", explains: spanBackward + " (onepixel_serial, fullimage_handover)"},
			timed(func() { tensor.Conv2DBackwardInto(gradX, gradK, gradB, x, k, convOut, spec) })},
		{rung{name: "split.ue_half_ms", explains: spanForward + " + " + spanBackward + " (onepixel_serial)"},
			timed(func() { ue.Forward(x); ue.Backward(ueGrad) })},
		{rung{name: "tensor.matmul_fullimage_ms", explains: spanService + " (fullimage_handover)"}, timed(mm(fullDim))},
		{rung{name: "split.bs_half_fullimage_ms", explains: spanService + " (fullimage_handover)"}, timed(bsFull)},
		{rung{name: "tensor.matmul_rf_ms", explains: spanRound + " (rfonly_shared)"}, timed(mm(1))},
		{rung{name: "split.bs_half_rf_ms", explains: spanRound + " (rfonly_shared)"}, timed(bsRF)},
		{rung{name: "compress.raw_encode_ms", explains: spanService + " (fullimage_handover)"},
			timed(func() {
				var err error
				encBuf, err = raw.EncodeInto(encBuf[:0], actFull)
				note(err)
			})},
		{rung{name: "compress.raw_decode_ms", explains: spanService + " (fullimage_handover)"},
			timed(func() {
				var err error
				decDst, err = raw.DecodeInto(decDst, encoded)
				note(err)
			})},
		{rung{name: "transport.frame_rw_fullimage_ms", explains: spanService + " (fullimage_handover)"},
			timed(frameRW(actFull))},
		{rung{name: "transport.frame_rw_onepixel_us", explains: spanService + " (onepixel_serial)"},
			timed(frameRW(actOne))},
		{rung{name: "split.save_state_ms", explains: "store.put, round_p90_ms (fullimage_handover)"},
			timed(func() {
				var b bytes.Buffer
				note(split.SaveTrainState(&b, 1, split.HalfBS, 1, bsModel.Params(), bsAdam))
			})},
		{rung{name: "store.journal_put_ms", explains: "store.put (fullimage_handover)"},
			func(i int) time.Duration {
				t0 := time.Now()
				note(j.PutCheckpoint("ladder", i+2, blob.Bytes()))
				d := time.Since(t0)
				note(j.DeleteCheckpoint("ladder", i+1))
				return d
			}},
	}
	out := make([]rung, 0, len(rungs))
	for _, r := range rungs {
		r.rung.nsPerOp, r.rung.allocs = timeRung(r.op)
		r.rung.unit, r.rung.scale = "ms", 1e6
		if strings.HasSuffix(r.rung.name, "_us") {
			r.rung.unit, r.rung.scale = "us", 1e3
		}
		out = append(out, r.rung)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
