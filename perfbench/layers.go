package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/tensor"
)

// spanMetrics are the traced spans reported as per-layer metrics: mean
// duration in ms as <name>_ms and the number of spans as <name>_n. A
// layer a workload does not use reports 0 for both.
var spanMetrics = []string{
	spanForward, spanService, spanBackward, spanTurnaround, spanRound,
	spanJoin, spanStall,
	"store.put", "store.get",
	"coord.migrate", "coord.migrate_out", "coord.adopt", "coord.dial",
	"dataset.provision",
}

// selfMetrics additionally report their mean self time as <name>_self_ms.
var selfMetrics = []string{"coord.migrate", "coord.migrate_out"}

// perLayer derives the per-layer metrics of a traced run: t is the
// traced phase, plain the untraced phase before it.
func perLayer(t, plain *tally, stats map[string]layerStat, rungs []rung) map[string]metric {
	m := map[string]metric{}
	for _, name := range spanMetrics {
		s := stats[name]
		m[name+"_ms"] = metric{s.MeanMs, "ms"}
		m[name+"_n"] = metric{float64(s.N), "count"}
	}
	for _, name := range selfMetrics {
		m[name+"_self_ms"] = metric{stats[name].SelfMs, "ms"}
	}
	steps := float64(t.steps)
	m["transport.up_bytes_per_step"] = metric{float64(t.up) / steps, "bytes"}
	m["transport.down_bytes_per_step"] = metric{float64(t.down) / steps, "bytes"}
	frac := 0.0
	if t.shareable > 0 {
		frac = float64(t.shared) / float64(t.shareable)
	}
	m["transport.shared_round_frac"] = metric{frac, "ratio"}
	m["transport.shared_rounds_n"] = metric{float64(t.shared), "count"}
	m["transport.batch_queue_peak"] = metric{float64(t.queuePeak), "count"}
	m["store.put_bytes"] = metric{0, "bytes"}
	if n := stats["store.put"].N; n > 0 {
		m["store.put_bytes"] = metric{float64(t.putBytes) / float64(n), "bytes"}
	}
	m["store.delete_calls"] = metric{float64(t.deletes), "count"}
	m["coord.relayed_bytes_per_step"] = metric{float64(t.relayed) / steps, "bytes"}

	traced, untraced := t.stepsPerSec(), plain.stepsPerSec()
	m["trace.steps_per_s_untraced"] = metric{untraced, "1/s"}
	m["trace.steps_per_s_traced"] = metric{traced, "1/s"}
	m["trace.overhead_frac"] = metric{(untraced - traced) / untraced, "ratio"}

	for _, r := range rungs {
		m[r.name] = metric{r.nsPerOp / r.scale, r.unit}
		m[strings.TrimSuffix(strings.TrimSuffix(r.name, "_ms"), "_us")+"_allocs"] = metric{r.allocs, "count"}
	}
	return m
}

// reportTrace prints the traced run for people: the round tiling, each
// layer's spans, and every ladder rung beside the span it explains.
func reportTrace(t, plain *tally, m map[string]metric, rungs []rung, spanFile string) {
	fmt.Printf("traced %d episodes (%d steps); untraced %d episodes (%d steps); traced ops %d attempted, %d failed, error_rate %.4f\n",
		t.episodes, t.steps, plain.episodes, plain.steps, t.ops.Attempted, t.ops.Failed, t.ops.errorRate())
	fmt.Printf("tracing overhead: %.4f (steps/s %.3f untraced, %.3f traced)\n",
		m["trace.overhead_frac"].Value, m["trace.steps_per_s_untraced"].Value, m["trace.steps_per_s_traced"].Value)
	if t.tiled > 0 {
		var sum float64
		fmt.Printf("round tiling over %d rounds (means, ms):\n", t.tiled)
		for i, name := range [4]string{spanForward, spanService, spanBackward, spanTurnaround} {
			v := float64(t.tiles[i]) / 1e6 / float64(t.tiled)
			sum += v
			fmt.Printf("  %-28s %10.4f\n", name, v)
		}
		fmt.Printf("  %-28s %10.4f  (mean round %.4f)\n", "sum", sum, m[spanRound+"_ms"].Value)
	}
	fmt.Println("spans (mean ms, count):")
	for _, name := range spanMetrics {
		fmt.Printf("  %-28s %10.4f  n=%d\n", name, m[name+"_ms"].Value, int(m[name+"_n"].Value))
	}
	fmt.Println("layer ladder (per call; allocs per call) → span it should explain:")
	for _, r := range rungs {
		fmt.Printf("  %-32s %10.4f %s %8.1f allocs → %s\n", r.name, r.nsPerOp/r.scale, r.unit, r.allocs, r.explains)
	}
	fmt.Printf("spans written to %s\n", spanFile)
}

// fingerprint describes the machine and build the numbers came from.
func fingerprint() string {
	env := map[string]any{
		"cpu":            cpuModel(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"tensor_workers": tensor.Workers(),
		"go":             runtime.Version(),
		"commit":         "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	b, err := json.Marshal(env)
	if err != nil {
		return fmt.Sprint(env)
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
