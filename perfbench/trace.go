package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the program's public functions. Start and End are
// offsets from the tracer's origin. Parent is the index of the span
// that caused this one (-1: none); Session names the UE session the
// work was for ("" when it serves no single session).
type span struct {
	Name    string
	Start   time.Duration
	End     time.Duration
	Parent  int
	Session string
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so wrappers call it
// unconditionally.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	open  map[string]int // "name/session" → index of the open span begun under that key
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), open: map[string]int{}}
}

// add records a finished span and returns its index (-1 when untraced).
func (t *tracer) add(name, session string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Session: session, Parent: parent,
		Start: start.Sub(t.origin), End: end.Sub(t.origin),
	})
	return len(t.spans) - 1
}

// begin opens a span that later spans of the same session may name as
// their parent (see parentOf); finish closes it.
func (t *tracer) begin(name, session string, parent int) int {
	if t == nil {
		return -1
	}
	start := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Session: session, Parent: parent, Start: start.Sub(t.origin)})
	idx := len(t.spans) - 1
	t.open[name+"/"+session] = idx
	return idx
}

func (t *tracer) finish(idx int, name, session string) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = time.Since(t.origin)
	if t.open[name+"/"+session] == idx {
		delete(t.open, name+"/"+session)
	}
}

// parentOf returns the open span named name for session (-1: none).
func (t *tracer) parentOf(name, session string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[name+"/"+session]; ok {
		return i
	}
	return -1
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (they can run on other goroutines), so the covered part is the length
// of the union of the children's intervals clipped to the parent's.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var curLo, curHi time.Duration
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerStat summarises every span of one name.
type layerStat struct {
	N      int
	MeanMs float64
	SelfMs float64 // mean self time
}

// summarizeSpans groups spans by name.
func summarizeSpans(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	sum := map[string]*[3]float64{}
	for i, s := range spans {
		a := sum[s.Name]
		if a == nil {
			a = new([3]float64)
			sum[s.Name] = a
		}
		a[0]++
		a[1] += float64(s.dur()) / float64(time.Millisecond)
		a[2] += float64(self[i]) / float64(time.Millisecond)
	}
	out := make(map[string]layerStat, len(sum))
	for name, a := range sum {
		out[name] = layerStat{N: int(a[0]), MeanMs: a[1] / a[0], SelfMs: a[2] / a[0]}
	}
	return out
}

// writeSpans writes the spans as tab-separated lines (index, name,
// session, parent, start ns, end ns) for offline inspection.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tname\tsession\tparent\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\n", i, s.Name, s.Session, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
