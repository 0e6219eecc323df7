package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/coord"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/transport"
)

// Every workload runs the paper's shape: 40×40 depth images, batch 64,
// L = 4, hidden 32 (split.DefaultConfig) and the raw codec, in one
// process over net.Pipe with at most two UE connections. Each is a closed loop
// of episodes; an episode trains every session for a fixed number of
// steps on freshly built servers, so every episode of a seed computes
// the same numbers. Nothing is triggered by the wall clock: no idle
// timeout, no jitter, no tickers, and handovers fire at step counts.
const frames = 2400 // dataset frames per session (the transport default)

// workload is one benchmark input: what it runs and why it was chosen.
type workload struct {
	name  string
	why   string
	steps int // training steps per session per episode
	setup func(seed int64, tr *tracer) (*fixture, error)
	run   func(w workload, fx *fixture, episode int) (*episodeResult, error)
}

// Fullimage handover schedule: the BS checkpoints every ckptEvery steps,
// and the checkpoint at every handoverEvery-th step (never the last)
// hands the session to the other replica.
const (
	ckptEvery     = 4
	handoverEvery = 8
)

var workloads = []workload{
	{
		name:  "onepixel_serial",
		why:   "the paper's proposed Img+RF one-pixel scheme, one UE on the serial path: UE conv dominates and ~2 KB goes up per step, so it moves with kernels, not serving, coord or store code",
		steps: 64,
		// One UE: two co-located UEs whose steps are almost all UE-side
		// compute contend for the same two CPUs and flip between a
		// fast and a slow phase regime, which moved per-episode
		// throughput by 18% (CV) against 6% for one UE.
		setup: func(seed int64, tr *tracer) (*fixture, error) {
			return newFixture(tr, split.ImageRF, 40, seed)
		},
		run: runOnePixel,
	},
	{
		name:  "fullimage_handover",
		why:   "Img+RF full image (3.3 MB up per step) through a coordinator over two journaled replicas with checkpoints and step-count handovers: BS GEMM, codec, relay and store",
		steps: 16,
		// One UE, for the reason onepixel_serial has one: two full-image
		// UEs overlap or alternate their BS GEMMs from round to round,
		// which spread one run's per-session median rounds over
		// 110–165 ms and ten runs' round_p50_ms by up to 30% of the
		// median, against the host's own drift with one UE.
		setup: func(seed int64, tr *tracer) (*fixture, error) {
			return newFixture(tr, split.ImageRF, 1, seed)
		},
		run: runFullImage,
	},
	{
		name:  "rfonly_shared",
		why:   "the RF-only baseline as two clone sessions on the batched hub: no image traffic, every round one shared BS computation, so hub dispatch and small LSTM kernels",
		steps: 256,
		setup: func(seed int64, tr *tracer) (*fixture, error) {
			return newFixture(tr, split.RFOnly, 40, seed, seed)
		},
		run: runRFOnly,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixture is everything set-up provisions before the clock starts: each
// UE's own copy of its environment, and the BS-side provisioner warmed
// with the same sessions.
type fixture struct {
	tr   *tracer
	prov *provisioner
	ues  []ueSpec
	dir  string // scratch directory for journals
}

type ueSpec struct {
	hello transport.Hello // SessionID is the base id; see helloFor
	cfg   split.Config
	data  *dataset.Dataset // nil for RF-only: that UE holds no half
}

// helloFor names the session of one episode; servers are rebuilt every
// episode, so the id only has to be unique within the episode. The id
// travels in every hello, so it has a fixed width: uplink bytes must
// not depend on the episode number.
func (u ueSpec) helloFor(episode int) transport.Hello {
	h := u.hello
	h.SessionID = fmt.Sprintf("%s.e%06d", h.SessionID, episode)
	return h
}

func newFixture(tr *tracer, m split.Modality, pool int, seeds ...int64) (*fixture, error) {
	fx := &fixture{tr: tr, prov: newProvisioner(tr)}
	for i, seed := range seeds {
		h := transport.Hello{
			SessionID: fmt.Sprintf("ue%d", i), Seed: seed, Frames: frames,
			Pool: uint16(pool), Modality: uint8(m), Codec: uint8(compress.CodecRaw),
		}
		u := ueSpec{hello: h}
		if m.UsesImages() {
			var err error
			if u.cfg, u.data, _, err = transport.SessionEnv(h); err != nil {
				return nil, fmt.Errorf("UE %d environment: %w", i, err)
			}
		} else {
			u.cfg = split.DefaultConfig(m, pool)
			u.cfg.Seed, u.cfg.Codec = seed, compress.CodecRaw
		}
		u.hello.ConfigFP = u.cfg.Fingerprint()
		if _, _, _, err := fx.prov.provision(u.hello); err != nil {
			return nil, fmt.Errorf("BS provisioning for UE %d: %w", i, err)
		}
		fx.ues = append(fx.ues, u)
	}
	return fx, nil
}

// setTracer switches tracing for the episodes that follow.
func (fx *fixture) setTracer(tr *tracer) {
	fx.tr = tr
	fx.prov.tr = tr
}

// episodeResult is what one episode measured.
type episodeResult struct {
	steps     int64     // training steps completed, all sessions
	rmse      []float64 // final validation RMSE per session, session order
	clocks    []*roundClock
	ops       ops
	handovers int64 // completed handovers
	resumes   int64 // UE resumes from a checkpoint
	shared    int64 // hub rounds served by a clone's computation
	shareable int64 // hub rounds that had a clone to share with
	queuePeak int64
	relayed   int64 // coordinator relay bytes, both directions
	stores    []*tracedStore
}

// finals collects each session's terminal snapshot from the servers.
type finals struct {
	mu     sync.Mutex
	snaps  map[string]transport.SessionSnapshot
	failed int64 // incarnations that ended in error (a handover is not one)
}

func newFinals() *finals { return &finals{snaps: map[string]transport.SessionSnapshot{}} }

func (f *finals) onEnd(snap transport.SessionSnapshot, cause error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case snap.State == transport.SessionDetached:
		f.snaps[snap.ID] = snap
	case errors.Is(cause, transport.ErrMigrated):
	default:
		f.failed++
	}
}

// reconnect is the UE's retry schedule after a handover severs its
// connection: immediate and deterministic (no jitter).
var reconnect = transport.Backoff{Base: time.Microsecond, Max: time.Microsecond, Retries: 3, NoJitter: true}

type dialer func(clk *roundClock) func() (io.ReadWriteCloser, error)

// runUEs runs one live UESession per fixture UE to completion and
// accounts the episode: rounds, joins and session outcomes.
func runUEs(fx *fixture, episode int, dial dialer,
	hook func(id string) func(transport.MsgType, uint32) error) *episodeResult {
	n := len(fx.ues)
	clocks := make([]*roundClock, n)
	resumes := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, u := range fx.ues {
		h := u.helloFor(episode)
		clocks[i] = newRoundClock(h.SessionID, transport.MsgBatchRequest, fx.tr)
		s := &transport.UESession{Hello: h, Cfg: u.cfg, Data: u.data, Backoff: reconnect}
		if hook != nil {
			s.OnRequest = hook(h.SessionID)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Run(dial(clocks[i]))
			resumes[i] = s.Resumes()
		}()
	}
	wg.Wait()
	res := &episodeResult{clocks: clocks}
	for i, err := range errs {
		res.resumes += int64(resumes[i])
		if err != nil {
			res.ops.add(1, 1)
		}
	}
	return res
}

// settle folds the servers' terminal snapshots into res.
func (res *episodeResult) settle(w workload, fx *fixture, episode int, fin *finals) {
	fin.mu.Lock()
	defer fin.mu.Unlock()
	res.ops.add(fin.failed, fin.failed)
	for i, u := range fx.ues {
		done := 0
		if snap, ok := fin.snaps[u.helloFor(episode).SessionID]; ok {
			done = snap.Steps
			res.rmse = append(res.rmse, snap.LastRMSE)
		}
		res.steps += int64(done)
		res.ops.add(int64(w.steps), int64(w.steps-done))
		clk := res.clocks[i]
		res.ops.add(clk.dials, clk.joinRejects)
	}
}

// pipeDialer serves each UE connection with srv.Handle on a tracked
// goroutine.
func pipeDialer(srv *transport.BSServer, handlers *sync.WaitGroup) dialer {
	return func(clk *roundClock) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) {
			ue, bs := net.Pipe()
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				_ = srv.Handle(bs) // outcomes are checked through OnSessionEnd
			}()
			return newUEConn(ue, clk), nil
		}
	}
}

func runOnePixel(w workload, fx *fixture, episode int) (*episodeResult, error) {
	fin := newFinals()
	srv, err := transport.NewBSServer(transport.ServerConfig{
		MaxUE: 2, Sched: transport.SchedAsync, Steps: w.steps, EvalEvery: w.steps,
		Provision: fx.prov.provision, OnSessionEnd: fin.onEnd,
	})
	if err != nil {
		return nil, err
	}
	var handlers sync.WaitGroup
	res := runUEs(fx, episode, pipeDialer(srv, &handlers), nil)
	handlers.Wait()
	srv.Close()
	res.settle(w, fx, episode, fin)
	return res, nil
}

func runRFOnly(w workload, fx *fixture, episode int) (*episodeResult, error) {
	fin := newFinals()
	st := &tracedStore{Store: store.NewMem(0), tr: fx.tr}
	srv, err := transport.NewBSServer(transport.ServerConfig{
		MaxUE: 2, Sched: transport.SchedAsync, Steps: w.steps, EvalEvery: w.steps,
		// The gate starts both clones' rounds together; with BatchMax 2
		// every dispatch fires on the second arrival, so the window is
		// only a bound that a healthy run never reaches.
		Provision:   fleet.GateProvision(len(fx.ues), fx.prov.provision),
		BatchWindow: time.Second, BatchMax: 2,
		// A checkpoint per step is the only per-round frame an RF-only
		// UE receives; it makes the round visible on the UE's wire.
		Store: st, CheckpointEvery: 1,
		OnSessionEnd: fin.onEnd,
	})
	if err != nil {
		return nil, err
	}
	var handlers, ues sync.WaitGroup
	dial := pipeDialer(srv, &handlers)
	res := &episodeResult{clocks: make([]*roundClock, len(fx.ues))}
	errs := make([]error, len(fx.ues))
	for i, u := range fx.ues {
		h := u.helloFor(episode)
		res.clocks[i] = newRoundClock(h.SessionID, transport.MsgCheckpoint, fx.tr)
		conn, _ := dial(res.clocks[i])()
		ues.Add(1)
		go func() {
			defer ues.Done()
			defer conn.Close()
			errs[i] = rfOnlyUE(conn, h)
		}()
	}
	ues.Wait()
	handlers.Wait()
	res.shared = srv.SharedRounds()
	_, res.queuePeak = srv.BatchQueueDepth()
	res.stores = []*tracedStore{st}
	srv.Close()
	for _, err := range errs {
		if err != nil {
			res.ops.add(1, 1)
		}
	}
	res.settle(w, fx, episode, fin)
	res.shareable = res.steps / 2 // one clone pair per round
	return res, nil
}

// rfOnlyUE is an RF-only UE: it joins and stays joined, absorbing
// control frames until the BS shuts the session down.
func rfOnlyUE(conn io.ReadWriter, h transport.Hello) error {
	if _, err := transport.JoinSession(conn, h); err != nil {
		return err
	}
	fr := transport.NewFrameReader(conn)
	defer fr.Release()
	for {
		msg, err := fr.ReadMessage()
		if err != nil {
			return fmt.Errorf("RF-only UE read: %w", err)
		}
		switch msg.Type {
		case transport.MsgShutdown:
			return nil
		case transport.MsgCheckpoint: // the UE half is empty: nothing to save
		default:
			return fmt.Errorf("RF-only UE got unexpected %v", msg.Type)
		}
	}
}

// handovers drives Coordinator.Migrate from the UEs' request hooks.
type handovers struct {
	co *coord.Coordinator
	tr *tracer
	wg sync.WaitGroup

	mu        sync.Mutex
	reachedFn map[string]func()
	ops       ops
	done      int64
}

// trigger hands session id to the replica it is not on. It returns once
// the source replica has been asked for the session: the UE has not yet
// answered the BS's next request, so the BS cannot reach the following
// step boundary before the handover is parked there.
func (h *handovers) trigger(id string) {
	dst := "bs-0"
	if h.co.RouteOf(id) == "bs-0" {
		dst = "bs-1"
	}
	reached := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(reached) }) }
	h.mu.Lock()
	h.reachedFn[id] = release
	h.mu.Unlock()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		idx := h.tr.begin("coord.migrate", id, -1)
		err := h.co.Migrate(id, dst)
		h.tr.finish(idx, "coord.migrate", id)
		release()
		h.mu.Lock()
		defer h.mu.Unlock()
		if err != nil {
			h.ops.add(1, 1)
			return
		}
		h.ops.add(1, 0)
		h.done++
	}()
	<-reached
}

// reached is the replica wrapper's MigrateOut hook.
func (h *handovers) reached(id string) {
	h.mu.Lock()
	f := h.reachedFn[id]
	delete(h.reachedFn, id)
	h.mu.Unlock()
	if f != nil {
		f()
	}
}

// handoversPerSession is how many handovers one session of w meets.
func handoversPerSession(w workload) int64 {
	var n int64
	for s := ckptEvery; s < w.steps; s += ckptEvery {
		if s%handoverEvery == 0 {
			n++
		}
	}
	return n
}

func runFullImage(w workload, fx *fixture, episode int) (res *episodeResult, err error) {
	dir, err := os.MkdirTemp(fx.dir, "journals-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fin := newFinals()
	var handlers, conns sync.WaitGroup
	var servers []*transport.BSServer
	var stores []*tracedStore
	var replicas []coord.Replica
	var traced []*tracedReplica
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
		for _, st := range stores {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close journal: %w", cerr)
			}
		}
	}()
	for i := range 2 {
		j, err := store.OpenJournal(filepath.Join(dir, fmt.Sprintf("bs-%d.journal", i)), store.JournalOptions{})
		if err != nil {
			return nil, err
		}
		st := &tracedStore{Store: j, tr: fx.tr}
		stores = append(stores, st)
		srv, err := transport.NewBSServer(transport.ServerConfig{
			ReplicaID: fmt.Sprintf("bs-%d", i),
			MaxUE:     2, Sched: transport.SchedAsync, Steps: w.steps, EvalEvery: w.steps,
			Provision: fx.prov.provision, Store: st, CheckpointEvery: ckptEvery,
			OnSessionEnd: fin.onEnd,
		})
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		r := &tracedReplica{LocalReplica: coord.NewLocalReplica(srv), tr: fx.tr, handlers: &handlers}
		traced = append(traced, r)
		replicas = append(replicas, r)
	}
	co, err := coord.New(replicas, coord.Options{})
	if err != nil {
		return nil, err
	}
	ho := &handovers{co: co, tr: fx.tr, reachedFn: map[string]func(){}}
	for _, r := range traced {
		r.onMigrateOut = ho.reached
	}
	dial := func(clk *roundClock) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) {
			ue, c := net.Pipe()
			conns.Add(1)
			go func() {
				defer conns.Done()
				_ = co.HandleConn(c) // outcomes are checked through OnSessionEnd
			}()
			return newUEConn(ue, clk), nil
		}
	}
	hook := func(id string) func(transport.MsgType, uint32) error {
		return func(t transport.MsgType, step uint32) error {
			if t == transport.MsgCheckpoint && step%handoverEvery == 0 && int(step) < w.steps {
				ho.trigger(id)
			}
			return nil
		}
	}
	res = runUEs(fx, episode, dial, hook)
	ho.wg.Wait()
	conns.Wait()
	handlers.Wait()
	co.Close()
	st := co.Stats()
	res.relayed = st.RelayedBytesUp + st.RelayedBytesDown
	res.handovers = ho.done
	res.ops.merge(ho.ops)
	res.stores = stores
	res.settle(w, fx, episode, fin)
	return res, nil
}
