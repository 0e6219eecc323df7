package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/split"
	"repro/internal/transport"
)

// The base-station saturation benchmark (`mmsl bench -serve -ue N`):
// aggregate steps/sec at the BS — not single-session step latency — is
// what bounds how many UEs one server can train, so this harness drives
// N concurrent sessions against an in-process BSServer twice, once with
// no coalescing window ("serial": every round computes on arrival) and
// once with the batching window, and reports aggregate steps/sec, wire
// bytes/sec and p50/p99 round latency for both.
//
// The UEs are fleet replay load generators (internal/fleet/replay.go):
// one real UE session is recorded per seed, and each benchmark UE
// answers the server's requests with the recorded frames verbatim. The
// heterogeneous/churning end of the load spectrum is `-fleet`
// (fleet_bench.go), which runs live UE halves instead.

type serveResult struct {
	Mode         string  `json:"mode"` // serial | batched
	StepsPerSec  float64 `json:"agg_steps_per_sec"`
	BytesPerSec  float64 `json:"wire_bytes_per_sec"`
	P50Ms        float64 `json:"round_p50_ms"`
	P99Ms        float64 `json:"round_p99_ms"`
	SharedRounds int64   `json:"shared_rounds"`
	ElapsedSec   float64 `json:"elapsed_sec"`
}

type serveReport struct {
	UEs        int         `json:"ues"`
	StepsPerUE int         `json:"steps_per_ue"`
	Frames     int         `json:"dataset_frames"`
	Seeds      string      `json:"seeds"` // clone: all UEs share one seed; mixed: distinct seeds
	Serial     serveResult `json:"serial"`
	Batched    serveResult `json:"batched"`
	// Speedup is batched aggregate steps/sec over serial — the number
	// the ≥2× acceptance bar applies to.
	Speedup float64 `json:"batched_vs_serial_speedup"`
}

// runServePath drives ues replay sessions through one server and
// measures aggregate serving throughput.
func runServePath(batched bool, ues, steps int, window time.Duration,
	seeds []int64, frames uint32, traj map[int64][][]byte, prov transport.Provision) (serveResult, error) {

	scfg := transport.ServerConfig{
		MaxUE: ues, Steps: steps,
		EvalEvery: 1 << 30, ValAnchors: 16,
		Provision: fleet.GateProvision(ues, prov),
	}
	mode := "serial"
	if batched {
		mode = "batched"
		scfg.BatchWindow = window
		scfg.BatchMax = ues
	}
	srv, err := transport.NewBSServer(scfg)
	if err != nil {
		return serveResult{}, err
	}
	defer srv.Close()

	errs := make(chan error, 2*ues)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < ues; i++ {
		seed := seeds[i%len(seeds)]
		h := transport.Hello{
			SessionID: fmt.Sprintf("bench-ue-%02d", i),
			Seed:      seed, Frames: frames, Pool: 40,
			Modality: uint8(split.ImageRF),
		}
		cfg, _, _, err := prov(h)
		if err != nil {
			return serveResult{}, err
		}
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := srv.Handle(bsConn); err != nil {
				errs <- fmt.Errorf("session %s: %w", h.SessionID, err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := fleet.ReplayUE(ueConn, h, traj[seed]); err != nil {
				errs <- fmt.Errorf("replay %s: %w", h.SessionID, err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return serveResult{}, err
	}

	var wireBytes int64
	for _, snap := range srv.Sessions() {
		wireBytes += snap.BytesIn + snap.BytesOut
	}
	p50, p99, _ := srv.RoundLatency()
	return serveResult{
		Mode:         mode,
		StepsPerSec:  float64(ues*steps) / elapsed.Seconds(),
		BytesPerSec:  float64(wireBytes) / elapsed.Seconds(),
		P50Ms:        float64(p50) / 1e6,
		P99Ms:        float64(p99) / 1e6,
		SharedRounds: srv.SharedRounds(),
		ElapsedSec:   elapsed.Seconds(),
	}, nil
}

// runServeBench records the trajectories and measures both serving
// paths on the same workload.
func runServeBench(ues, steps, frames int, window time.Duration, mixed bool) (*serveReport, error) {
	prov := fleet.MemoProvision()
	seedMode := "clone"
	seeds := []int64{11}
	if mixed {
		seedMode = "mixed"
		seeds = make([]int64, ues)
		for i := range seeds {
			seeds[i] = int64(11 + i)
		}
	}
	traj := make(map[int64][][]byte, len(seeds))
	for _, seed := range seeds {
		h := transport.Hello{
			SessionID: fmt.Sprintf("bench-rec-%d", seed),
			Seed:      seed, Frames: uint32(frames), Pool: 40,
			Modality: uint8(split.ImageRF),
		}
		t, err := fleet.RecordTrajectory(prov, h, steps)
		if err != nil {
			return nil, fmt.Errorf("bench: record seed %d: %w", seed, err)
		}
		traj[seed] = t
	}

	serial, err := runServePath(false, ues, steps, window, seeds, uint32(frames), traj, prov)
	if err != nil {
		return nil, fmt.Errorf("bench: serial path: %w", err)
	}
	batched, err := runServePath(true, ues, steps, window, seeds, uint32(frames), traj, prov)
	if err != nil {
		return nil, fmt.Errorf("bench: batched path: %w", err)
	}
	rep := &serveReport{
		UEs: ues, StepsPerUE: steps, Frames: frames, Seeds: seedMode,
		Serial: serial, Batched: batched,
		Speedup: batched.StepsPerSec / serial.StepsPerSec,
	}
	return rep, nil
}

func printServeReport(rep *serveReport) {
	fmt.Printf("saturation bench: %d UEs × %d steps (%s seeds, %d-frame dataset)\n",
		rep.UEs, rep.StepsPerUE, rep.Seeds, rep.Frames)
	fmt.Printf("%-8s %14s %14s %10s %10s %8s\n",
		"path", "steps/sec", "bytes/sec", "p50 ms", "p99 ms", "shared")
	for _, r := range []serveResult{rep.Serial, rep.Batched} {
		fmt.Printf("%-8s %14.1f %14.0f %10.2f %10.2f %8d\n",
			r.Mode, r.StepsPerSec, r.BytesPerSec, r.P50Ms, r.P99Ms, r.SharedRounds)
	}
	fmt.Printf("batched vs serial aggregate steps/sec: %.2fx\n", rep.Speedup)
}
