package main

import (
	"io"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func TestPercentileCarriesCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	p := percentile(xs, 0.5)
	if p.Value != 50 || p.N != 100 || p.Beyond != 50 || p.IsMax {
		t.Fatalf("p50 = %+v, want value 50 of n=100 with 50 beyond", p)
	}
	p = tailPercentile(xs, 0.9)
	if p.Value != 90 || p.Beyond != 10 || p.IsMax {
		t.Fatalf("p90 = %+v, want value 90 with 10 beyond", p)
	}
}

func TestTailPercentileFallsBackToMax(t *testing.T) {
	xs := make([]float64, 99) // p90 has 9 samples beyond it
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := tailPercentile(xs, 0.9)
	if !p.IsMax || p.Value != 99 || p.N != 99 {
		t.Fatalf("p90 of 99 samples = %+v, want the max (99) flagged IsMax", p)
	}
	if p := tailPercentile(nil, 0.9); p.N != 0 || p.Value != 0 {
		t.Fatalf("empty input = %+v, want zero value", p)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestRoundP50AveragesSessionMedians(t *testing.T) {
	ms := time.Millisecond
	// One session ran fast while the other ran slow: the pooled median
	// would be whichever mode has one sample more; the per-session
	// average lies between them (medians 16 and 23).
	fast := &roundClock{intervals: []time.Duration{16 * ms, 17 * ms, 16 * ms}}
	slow := &roundClock{intervals: []time.Duration{23 * ms, 24 * ms, 23 * ms, 24 * ms, 22 * ms}}
	if got := meanSessionMedian([]*roundClock{fast, slow}); got != 19.5 {
		t.Fatalf("mean of session medians = %v, want 19.5", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "parent", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 40 * ms, Parent: 0},   // overlaps a: union 10..40
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0},  // clipped to 90..100
		{Name: "d", Start: 50 * ms, End: 60 * ms, Parent: -1},  // not a child
		{Name: "e", Start: 12 * ms, End: 14 * ms, Parent: 1},   // grandchild: a's, not parent's
		{Name: "f", Start: 200 * ms, End: 210 * ms, Parent: 0}, // outside the parent
	}
	self := selfTimes(spans)
	want := []time.Duration{60 * ms, 18 * ms, 20 * ms, 30 * ms, 10 * ms, 2 * ms, 10 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	st := summarizeSpans(spans)["parent"]
	if st.N != 1 || st.MeanMs != 100 || st.SelfMs != 60 {
		t.Errorf("summary of parent = %+v", st)
	}
}

func TestErrorRateAccounting(t *testing.T) {
	var o ops
	if o.errorRate() != 0 {
		t.Fatal("empty tally must have rate 0")
	}
	o.add(2, 0)   // joins
	o.add(128, 3) // rounds, 3 never completed
	var h ops
	h.add(1, 0) // a handover
	h.add(1, 1) // a failed one
	o.merge(h)
	if o.Attempted != 132 || o.Failed != 4 {
		t.Fatalf("tally = %+v, want 132 attempted, 4 failed", o)
	}
	if got, want := o.errorRate(), 4.0/132; got != want {
		t.Fatalf("error rate = %v, want %v", got, want)
	}
}

func TestRoundSpansTileTheRound(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer()
	tr.origin = base
	c := newRoundClock("s", transport.MsgBatchRequest, tr)
	c.connect()
	c.write(at(0)) // the hello: no round open, ignored
	// Round 1: forward 3, service 10, backward 2, turnaround 5.
	c.request(at(1))
	c.write(at(4))
	c.readCall(at(5)) // the UE waits for the gradient: not a phase boundary
	c.gradient(at(14))
	c.readCall(at(16))
	// An eval request and its activation inside the turnaround change nothing.
	c.write(at(18))
	c.request(at(21))
	// Round 2 ends in a reconnect: the interval counts as a handover stall.
	c.write(at(25))
	c.gradient(at(30))
	c.readCall(at(31))
	c.connect()
	c.request(at(81))

	if len(c.intervals) != 2 || c.intervals[0] != 20*time.Millisecond || c.intervals[1] != 60*time.Millisecond {
		t.Fatalf("intervals = %v, want [20ms 60ms]", c.intervals)
	}
	var sum time.Duration
	for _, d := range c.tiles {
		sum += d
	}
	if c.tiled != 2 || sum != 80*time.Millisecond {
		t.Fatalf("tiled %d rounds summing to %v, want 2 rounds summing to 80ms", c.tiled, sum)
	}
	want := [4]time.Duration{7 * time.Millisecond, 15 * time.Millisecond, 3 * time.Millisecond, 55 * time.Millisecond}
	if c.tiles != want {
		t.Fatalf("tiles = %v, want %v", c.tiles, want)
	}
	st := summarizeSpans(tr.snapshot())
	tileMean := st[spanForward].MeanMs + st[spanService].MeanMs + st[spanBackward].MeanMs + st[spanTurnaround].MeanMs
	if st[spanRound].N != 2 || tileMean != st[spanRound].MeanMs || st[spanRound].SelfMs != 0 {
		t.Fatalf("round %+v, tile means sum to %v", st[spanRound], tileMean)
	}
	if st[spanStall].N != 1 || st[spanStall].MeanMs != 60 {
		t.Fatalf("stall spans %+v, want one of 60ms", st[spanStall])
	}
}

// chunkConn replays a byte stream in fixed-size reads.
type chunkConn struct {
	data  []byte
	chunk int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.data)
	c.data = c.data[n:]
	return n, nil
}
func (c *chunkConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *chunkConn) Close() error                { return nil }

func TestUEConnParsesFramesAcrossReads(t *testing.T) {
	var stream []byte
	var err error
	ack := &transport.Hello{SessionID: "s", Err: "server full"}
	grad := tensor.New(2, 1, 1, 1)
	for _, m := range []*transport.Message{
		{Type: transport.MsgSessionAck, Hello: ack},
		{Type: transport.MsgBatchRequest, Step: 1, Anchors: []int32{5, 6}},
		{Type: transport.MsgCutGradient, Step: 1, Tensor: grad, Codec: compress.CodecRaw},
		{Type: transport.MsgBatchRequest, Step: 2, Anchors: []int32{7, 8}},
	} {
		if stream, err = transport.AppendMessage(stream, m, transport.ProtocolVersion); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{1, 5, 13, len(stream)} {
		clk := newRoundClock("s", transport.MsgBatchRequest, nil)
		c := newUEConn(&chunkConn{data: append([]byte(nil), stream...), chunk: chunk}, clk)
		if _, err := c.Write([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for {
			if _, err := c.Read(buf); err != nil {
				break
			}
		}
		if clk.requests != 2 || clk.joinRejects != 1 || clk.down != int64(len(stream)) || clk.up != 5 {
			t.Fatalf("chunk %d: requests %d, rejects %d, down %d, up %d", chunk,
				clk.requests, clk.joinRejects, clk.down, clk.up)
		}
		if clk.ph != phaseAwaitAct || len(clk.intervals) != 1 {
			t.Fatalf("chunk %d: phase %v, %d intervals", chunk, clk.ph, len(clk.intervals))
		}
	}
}
