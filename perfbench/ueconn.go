package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"time"

	"repro/internal/transport"
)

// Round phases as the UE sees them on its own connection. A round runs
// from one training request to the next and is tiled by four spans:
//
//	request read    → activation write   split.ue_forward
//	activation write → gradient read      transport.bs_service
//	gradient read   → UE's next Read call split.ue_backward
//	that Read call  → next request read   transport.bs_turnaround
//
// The boundaries are consecutive, so the four means sum to the mean
// round interval.
type phase int

const (
	phaseIdle      phase = iota // no request seen yet in this session
	phaseAwaitAct               // request read; next Write is the activation
	phaseAwaitGrad              // activation written; waiting for the gradient frame
	phaseAwaitRead              // gradient read; waiting for the UE's next Read call
	phaseAwaitReq               // UE waiting for the next request
)

// Span names of the round tiling.
const (
	spanRound      = "transport.round"
	spanForward    = "split.ue_forward"
	spanService    = "transport.bs_service"
	spanBackward   = "split.ue_backward"
	spanTurnaround = "transport.bs_turnaround"
	spanStall      = "coord.handover_stall"
	spanJoin       = "transport.join"
)

// roundClock turns one UE session's wire events into round intervals
// and their tiling spans. It outlives connections, so the round that
// spans a reconnect (a handover) is measured like any other. Every
// event comes from the session's single UE goroutine.
type roundClock struct {
	session   string
	roundType transport.MsgType // the frame that opens a round
	tr        *tracer

	ph                   phase
	reqAt, actAt, gradAt time.Time
	readAt               time.Time
	reconnected          bool

	intervals []time.Duration // request → next request
	tiled     int             // intervals split into the four spans
	tiles     [4]time.Duration

	up, down    int64 // wire bytes written / read by the UE
	dials       int64 // connections opened
	joinRejects int64 // acks that refused the join
	requests    int64 // round-opening frames received
}

func newRoundClock(session string, roundType transport.MsgType, tr *tracer) *roundClock {
	return &roundClock{session: session, roundType: roundType, tr: tr}
}

func (c *roundClock) request(t time.Time) {
	c.requests++
	if c.ph != phaseIdle {
		c.intervals = append(c.intervals, t.Sub(c.reqAt))
		if c.reconnected {
			c.tr.add(spanStall, c.session, -1, c.reqAt, t)
		}
		r := c.tr.add(spanRound, c.session, -1, c.reqAt, t)
		if c.ph == phaseAwaitReq {
			c.tiled++
			bounds := [5]time.Time{c.reqAt, c.actAt, c.gradAt, c.readAt, t}
			for i, name := range [4]string{spanForward, spanService, spanBackward, spanTurnaround} {
				c.tiles[i] += bounds[i+1].Sub(bounds[i])
				c.tr.add(name, c.session, r, bounds[i], bounds[i+1])
			}
		}
	}
	c.reqAt, c.ph, c.reconnected = t, phaseAwaitAct, false
}

func (c *roundClock) write(t time.Time) {
	if c.ph == phaseAwaitAct {
		c.actAt, c.ph = t, phaseAwaitGrad
	}
}

func (c *roundClock) gradient(t time.Time) {
	if c.ph == phaseAwaitGrad {
		c.gradAt, c.ph = t, phaseAwaitRead
	}
}

func (c *roundClock) readCall(t time.Time) {
	if c.ph == phaseAwaitRead {
		c.readAt, c.ph = t, phaseAwaitReq
	}
}

// connect notes a new connection: the next interval spans a reconnect.
func (c *roundClock) connect() {
	c.dials++
	if c.ph != phaseIdle {
		c.reconnected = true
	}
}

// ueConn is the UE end of one connection. It counts bytes both ways
// and parses the incoming frame stream (header: magic, type, version,
// step, length; then payload and a 4-byte CRC) so it can timestamp the
// moment each frame's last byte arrives.
type ueConn struct {
	inner io.ReadWriteCloser
	clk   *roundClock

	hdr  [12]byte
	hdrN int
	rest int // payload + CRC bytes still to come for the current frame
	ack  []byte

	helloAt time.Time
}

func newUEConn(inner io.ReadWriteCloser, clk *roundClock) *ueConn {
	clk.connect()
	return &ueConn{inner: inner, clk: clk}
}

func (c *ueConn) Read(p []byte) (int, error) {
	c.clk.readCall(time.Now())
	n, err := c.inner.Read(p)
	if n > 0 {
		c.clk.down += int64(n)
		c.parse(p[:n], time.Now())
	}
	return n, err
}

func (c *ueConn) Write(p []byte) (int, error) {
	t := time.Now()
	if c.helloAt.IsZero() {
		c.helloAt = t
	}
	c.clk.write(t)
	n, err := c.inner.Write(p)
	c.clk.up += int64(n)
	return n, err
}

func (c *ueConn) Close() error { return c.inner.Close() }

// parse advances the frame parser over b, which arrived at t.
func (c *ueConn) parse(b []byte, t time.Time) {
	for len(b) > 0 {
		if c.hdrN < len(c.hdr) {
			k := copy(c.hdr[c.hdrN:], b)
			c.hdrN += k
			b = b[k:]
			if c.hdrN < len(c.hdr) {
				return
			}
			c.rest = int(binary.BigEndian.Uint32(c.hdr[8:])) + 4
			if transport.MsgType(c.hdr[2]) == transport.MsgSessionAck {
				c.ack = append(c.ack[:0], c.hdr[:]...)
			}
		}
		k := min(c.rest, len(b))
		if transport.MsgType(c.hdr[2]) == transport.MsgSessionAck {
			c.ack = append(c.ack, b[:k]...)
		}
		c.rest -= k
		b = b[k:]
		if c.rest == 0 {
			c.frameDone(transport.MsgType(c.hdr[2]), t)
			c.hdrN = 0
		}
	}
}

func (c *ueConn) frameDone(typ transport.MsgType, t time.Time) {
	switch typ {
	case c.clk.roundType:
		c.clk.request(t)
	case transport.MsgCutGradient:
		c.clk.gradient(t)
	case transport.MsgSessionAck:
		c.clk.tr.add(spanJoin, c.clk.session, -1, c.helloAt, t)
		if m, err := transport.ReadMessage(bytes.NewReader(c.ack)); err != nil || m.Hello == nil || m.Hello.Err != "" {
			c.clk.joinRejects++
		}
	}
}
