// Command perfbench is the repository's benchmark: three closed-loop
// workloads built on the paper's schemes (one-pixel Img+RF, full-image
// Img+RF with replica handover, and shared RF-only), each run in one
// process over net.Pipe. See README.md for the metrics and how to read
// them.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics with --trace 0,
// the per-layer metrics (from a separate traced pass, plus the layer
// ladder) with --trace 1. A failed output check prints correct=false
// with no metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run provisions its sessions; setup_s
// is their median.
const setupRepeats = 5

// scratchRoot holds everything the benchmark writes, inside the
// checkout it runs from.
const scratchRoot = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s≥1> --trace <0|1>\n",
			strings.Join(names, "|"))
		os.Exit(2)
	}
	// A hung episode must not hold the run past its time limit.
	limit := time.Duration(*seconds)*time.Second + 2*time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: no result after %v\n", w.name, *seed, limit)
		os.Exit(1)
	})
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		res.Correct, res.Metrics = false, map[string]metric{}
		printResult(res)
		os.Exit(1)
	}
	printResult(res)
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// tally accumulates episodes of one measured phase.
type tally struct {
	episodes   int
	elapsed    time.Duration
	rates      []float64 // per-episode steps/s
	cpuPerStep []float64 // per-episode CPU ms per step
	p50s       []float64 // per-episode mean of the sessions' median rounds, ms
	steps      int64
	up, down   int64
	intervals  []time.Duration
	tiled      int
	tiles      [4]time.Duration
	ops        ops
	handovers  int64
	resumes    int64
	shared     int64
	shareable  int64
	queuePeak  int64
	relayed    int64
	putBytes   int64
	deletes    int64
}

// reference is what the warm-up episode computed; every measured
// episode of the run must repeat it exactly.
type reference struct {
	rmseBits []uint64
	upBytes  []int64
}

func referenceOf(res *episodeResult) reference {
	var ref reference
	for _, r := range res.rmse {
		ref.rmseBits = append(ref.rmseBits, math.Float64bits(r))
	}
	for _, c := range res.clocks {
		ref.upBytes = append(ref.upBytes, c.up)
	}
	return ref
}

// check applies the output checks to one episode.
func check(w workload, fx *fixture, res *episodeResult, ref reference) error {
	if res.ops.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.ops.Failed, res.ops.Attempted)
	}
	if len(res.rmse) != len(fx.ues) {
		return fmt.Errorf("%d of %d sessions detached cleanly", len(res.rmse), len(fx.ues))
	}
	got := referenceOf(res)
	for i := range ref.rmseBits {
		if got.rmseBits[i] != ref.rmseBits[i] {
			return fmt.Errorf("session %d final RMSE %v, warm-up episode had %v: not deterministic",
				i, res.rmse[i], math.Float64frombits(ref.rmseBits[i]))
		}
		if got.upBytes[i] != ref.upBytes[i] {
			return fmt.Errorf("session %d sent %d uplink bytes, warm-up episode sent %d",
				i, got.upBytes[i], ref.upBytes[i])
		}
	}
	switch w.name {
	case "rfonly_shared":
		if res.shared != res.shareable {
			return fmt.Errorf("%d of %d hub rounds shared; every round must be", res.shared, res.shareable)
		}
	case "fullimage_handover":
		want := handoversPerSession(w) * int64(len(fx.ues))
		if res.handovers != want {
			return fmt.Errorf("%d handovers completed, want %d", res.handovers, want)
		}
		if res.resumes != res.handovers {
			return fmt.Errorf("%d handovers but %d UE resumes", res.handovers, res.resumes)
		}
	}
	return nil
}

// meanSessionMedian is the mean over sessions of each session's median
// round interval, in ms.
func meanSessionMedian(clocks []*roundClock) float64 {
	var sum float64
	for _, c := range clocks {
		sum += median(ms(c.intervals))
	}
	return sum / float64(len(clocks))
}

func (t *tally) add(res *episodeResult) {
	t.episodes++
	t.steps += res.steps
	t.ops.merge(res.ops)
	t.handovers += res.handovers
	t.resumes += res.resumes
	t.shared += res.shared
	t.shareable += res.shareable
	t.queuePeak = max(t.queuePeak, res.queuePeak)
	t.relayed += res.relayed
	t.p50s = append(t.p50s, meanSessionMedian(res.clocks))
	for _, c := range res.clocks {
		t.up += c.up
		t.down += c.down
		t.intervals = append(t.intervals, c.intervals...)
		t.tiled += c.tiled
		for i := range t.tiles {
			t.tiles[i] += c.tiles[i]
		}
	}
	for _, st := range res.stores {
		t.putBytes += st.putBytes.Load()
		t.deletes += st.deletes.Load()
	}
}

// measure runs episodes until d has passed (at least one), checking
// each against the reference.
func measure(w workload, fx *fixture, d time.Duration, next *int, ref reference) (*tally, error) {
	t := &tally{}
	start := time.Now()
	for {
		*next++
		epStart, epCPU := time.Now(), cpuTime()
		res, err := w.run(w, fx, *next)
		if err != nil {
			return t, err
		}
		t.add(res)
		t.rates = append(t.rates, float64(res.steps)/time.Since(epStart).Seconds())
		t.cpuPerStep = append(t.cpuPerStep, float64(cpuTime()-epCPU)/float64(time.Millisecond)/float64(res.steps))
		if err := check(w, fx, res, ref); err != nil {
			return t, err
		}
		if time.Since(start) >= d {
			break
		}
	}
	t.elapsed = time.Since(start)
	return t, nil
}

// stepsPerSec is the median of the episodes' aggregate throughput, so a
// single episode disturbed by the machine does not move the run.
func (t *tally) stepsPerSec() float64 { return median(t.rates) }

func bench(w workload, seed int64, d time.Duration, traced bool) (result, error) {
	var res result
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	// Set-up: provision every session from scratch, several times.
	var setups []float64
	var fx *fixture
	for range setupRepeats {
		fx = nil
		runtime.GC()
		t0 := time.Now()
		fx, err = w.setup(seed, nil)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fx.dir = dir
	runtime.GC()

	// Warm-up episode: fills pools and caches, and fixes the numbers
	// every measured episode must repeat.
	episode := 0
	warm, err := w.run(w, fx, episode)
	if err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	ref := referenceOf(warm)
	if err := check(w, fx, warm, ref); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}

	env := fingerprint()
	fmt.Printf("env: %s\n", env)
	fmt.Printf("workload %s (seed %d): %s\n", w.name, seed, w.why)

	if !traced {
		t, err := measure(w, fx, d, &episode, ref)
		res.Attempted, res.Failed = t.ops.Attempted+warm.ops.Attempted, t.ops.Failed+warm.ops.Failed
		if err != nil {
			return res, err
		}
		res.Metrics = endToEnd(t, setups)
		report(t, res.Metrics, warm)
		res.Correct = true
		return res, nil
	}

	// Traced run: an untraced half for the overhead baseline, then the
	// traced half that yields the spans, then the layer ladder.
	plain, err := measure(w, fx, d/2, &episode, ref)
	res.Attempted, res.Failed = plain.ops.Attempted+warm.ops.Attempted, plain.ops.Failed+warm.ops.Failed
	if err != nil {
		return res, err
	}
	tr := newTracer()
	fx.setTracer(tr)
	// Provisioning happens in set-up; trace one more set-up so its
	// layer is measured too.
	if _, err := w.setup(seed, tr); err != nil {
		return res, fmt.Errorf("traced set-up: %w", err)
	}
	t, err := measure(w, fx, d-d/2, &episode, ref)
	fx.setTracer(nil)
	res.Attempted += t.ops.Attempted
	res.Failed += t.ops.Failed
	if err != nil {
		return res, err
	}
	spans := tr.snapshot()
	spanFile := fmt.Sprintf("%s/spans-%s-%d.tsv", scratchRoot, w.name, seed)
	if err := writeSpans(spanFile, spans); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	rungs, err := runLadder(dir)
	if err != nil {
		return res, fmt.Errorf("layer ladder: %w", err)
	}
	res.Metrics = perLayer(t, plain, summarizeSpans(spans), rungs)
	res.Metrics["split.final_rmse_db"] = metric{mean(warm.rmse), "dB"}
	reportTrace(t, plain, res.Metrics, rungs, spanFile)
	res.Correct = true
	return res, nil
}

// endToEnd derives the end-to-end metrics of an untraced run.
//
// round_p50_ms is each session's median round, averaged over the
// episode's sessions, then the median over episodes. Two UEs sharing
// the process's CPUs take turns being the faster one, so their pooled
// rounds are bimodal and a pooled median jumps between the modes from
// run to run; the per-session average does not. round_p90_ms sits in
// the slow mode and is taken over the pooled rounds.
func endToEnd(t *tally, setups []float64) map[string]metric {
	iv := ms(t.intervals)
	return map[string]metric{
		"setup_s":               {median(setups), "s"},
		"steps_per_s":           {t.stepsPerSec(), "1/s"},
		"round_p50_ms":          {median(t.p50s), "ms"},
		"round_p90_ms":          {tailPercentile(iv, 0.9).Value, "ms"},
		"cpu_ms_per_step":       {median(t.cpuPerStep), "ms"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"uplink_bytes_per_step": {float64(t.up) / float64(t.steps), "bytes"},
	}
}

// report prints the end-to-end metrics for people, with the sample
// counts the JSON line leaves out.
func report(t *tally, m map[string]metric, warm *episodeResult) {
	iv := ms(t.intervals)
	p90 := tailPercentile(iv, 0.9)
	fmt.Printf("measured %d episodes, %d steps in %.2fs; ops %d attempted, %d failed, error_rate %.4f; %d handovers, %d UE resumes\n",
		t.episodes, t.steps, t.elapsed.Seconds(), t.ops.Attempted, t.ops.Failed, t.ops.errorRate(), t.handovers, t.resumes)
	for _, name := range sortedKeys(m) {
		extra := ""
		switch name {
		case "round_p50_ms":
			extra = fmt.Sprintf("  (n=%d rounds in %d episodes)", len(iv), t.episodes)
		case "round_p90_ms":
			extra = fmt.Sprintf("  (n=%d, %d beyond)", p90.N, p90.Beyond)
			if p90.IsMax {
				extra = fmt.Sprintf("  (n=%d: max, fewer than %d samples beyond p90)", p90.N, minTail)
			}
		}
		fmt.Printf("  %-24s %14.4f %s%s\n", name, m[name].Value, m[name].Unit, extra)
	}
	fmt.Printf("  %-24s %14.4f dB  (per-layer metric split.final_rmse_db; repeated exactly by every episode)\n",
		"final_rmse_db", mean(warm.rmse))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
