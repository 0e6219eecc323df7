package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/transport"
)

// Wrappers that time calls into the store, coord and dataset layers
// from outside the program. Each embeds the wrapped value, so every
// method it does not override — and every optional capability a caller
// type-asserts — reaches the real implementation unchanged.

// tracedStore times checkpoint traffic. A put or get issued inside a
// handover of the same session (the source's final checkpoint and blob
// fetch, the destination's adopt) is parented to that coord span.
type tracedStore struct {
	store.Store
	tr *tracer

	putBytes atomic.Int64
	deletes  atomic.Int64
}

func (s *tracedStore) PutCheckpoint(id string, step int, blob []byte) error {
	t0 := time.Now()
	err := s.Store.PutCheckpoint(id, step, blob)
	parent := s.tr.parentOf("coord.adopt", id)
	if parent < 0 {
		parent = s.tr.parentOf("coord.migrate_out", id)
	}
	s.tr.add("store.put", id, parent, t0, time.Now())
	s.putBytes.Add(int64(len(blob)))
	return err
}

func (s *tracedStore) GetCheckpoint(id string, step int) ([]byte, error) {
	t0 := time.Now()
	blob, err := s.Store.GetCheckpoint(id, step)
	s.tr.add("store.get", id, s.tr.parentOf("coord.migrate_out", id), t0, time.Now())
	return blob, err
}

func (s *tracedStore) DeleteCheckpoint(id string, step int) error {
	s.deletes.Add(1)
	return s.Store.DeleteCheckpoint(id, step)
}

// tracedReplica times the coordinator's calls into one replica. The
// embedded *coord.LocalReplica supplies Crashed and TakeoverStore, the
// capabilities the coordinator type-asserts.
type tracedReplica struct {
	*coord.LocalReplica
	tr       *tracer
	handlers *sync.WaitGroup // joins the BS handler goroutines Dial starts

	// onMigrateOut, when set, runs as a handover reaches the source
	// replica, before the session is parked (see handovers.trigger).
	onMigrateOut func(id string)
}

var (
	_ coord.Replica               = (*tracedReplica)(nil)
	_ coord.RecoverySource        = (*tracedReplica)(nil)
	_ interface{ Crashed() bool } = (*tracedReplica)(nil)
)

// Dial serves a pipe end with the replica's Handle, as
// LocalReplica.Dial does, but joins the handler so an episode can wait
// for the server to finish retiring its sessions.
func (r *tracedReplica) Dial() (io.ReadWriteCloser, error) {
	t0 := time.Now()
	ueEnd, bsEnd := net.Pipe()
	r.handlers.Add(1)
	go func() {
		defer r.handlers.Done()
		_ = r.BS().Handle(bsEnd) // outcomes are checked through OnSessionEnd
	}()
	r.tr.add("coord.dial", "", -1, t0, time.Now())
	return ueEnd, nil
}

func (r *tracedReplica) MigrateOut(id string, timeout time.Duration) (*transport.MigrationState, error) {
	if r.onMigrateOut != nil {
		r.onMigrateOut(id)
	}
	idx := r.tr.begin("coord.migrate_out", id, r.tr.parentOf("coord.migrate", id))
	st, err := r.LocalReplica.MigrateOut(id, timeout)
	r.tr.finish(idx, "coord.migrate_out", id)
	return st, err
}

func (r *tracedReplica) Adopt(st *transport.MigrationState) error {
	idx := r.tr.begin("coord.adopt", st.ID, r.tr.parentOf("coord.migrate", st.ID))
	err := r.LocalReplica.Adopt(st)
	r.tr.finish(idx, "coord.adopt", st.ID)
	return err
}

// provisioner memoises transport.SessionEnv per seed, as a BS fleet
// does for sessions of one environment, and times each environment it
// builds. Set-up warms it, so provisioning cost lands in setup_s and a
// join on the measured path pays only the lookup.
type provisioner struct {
	tr *tracer

	mu    sync.Mutex
	cache map[int64]*provisioned
}

type provisioned struct {
	cfg split.Config
	d   *dataset.Dataset
	sp  *dataset.Split
	err error
}

func newProvisioner(tr *tracer) *provisioner {
	return &provisioner{tr: tr, cache: map[int64]*provisioned{}}
}

func (p *provisioner) provision(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
	t0 := time.Now()
	p.mu.Lock()
	e, ok := p.cache[h.Seed]
	if !ok {
		e = &provisioned{}
		e.cfg, e.d, e.sp, e.err = transport.SessionEnv(h)
		p.cache[h.Seed] = e
	}
	p.mu.Unlock()
	if !ok {
		p.tr.add("dataset.provision", h.SessionID, -1, t0, time.Now())
	}
	return e.cfg, e.d, e.sp, e.err
}
