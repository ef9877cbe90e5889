package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/sharedlog"
)

// traceEvery samples one input event in this many for hop tracing.
const traceEvery = 16

// spanLog keeps the traced pass's spans in memory: for each sampled
// event, the time its input batch became visible in the log (seen by a
// benchmark-owned cursor) and the time the delivery sink handed its
// output to the consumer, plus the benchmark's own SendVia and Deliver
// calls. Emission and ack times come from the run's per-event arrays.
type spanLog struct {
	visible      []atomic.Int64
	handoffAt    []atomic.Int64
	sendStart    []int64
	sendEnd      []int64
	deliverStart []atomic.Int64
	deliverEnd   []atomic.Int64
}

func newSpanLog(events int) *spanLog {
	n := (events + traceEvery - 1) / traceEvery
	return &spanLog{
		visible:      make([]atomic.Int64, n),
		handoffAt:    make([]atomic.Int64, n),
		sendStart:    make([]int64, n),
		sendEnd:      make([]int64, n),
		deliverStart: make([]atomic.Int64, n),
		deliverEnd:   make([]atomic.Int64, n),
	}
}

func (s *spanLog) send(i int, start, end time.Time) {
	if i%traceEvery == 0 {
		s.sendStart[i/traceEvery], s.sendEnd[i/traceEvery] = start.UnixNano(), end.UnixNano()
	}
}

func (s *spanLog) handoff(i int, now int64) {
	if i%traceEvery == 0 {
		s.handoffAt[i/traceEvery].CompareAndSwap(0, now)
	}
}

func (s *spanLog) deliverCall(i int, start, end int64) {
	if i%traceEvery == 0 && s.deliverStart[i/traceEvery].CompareAndSwap(0, start) {
		s.deliverEnd[i/traceEvery].Store(end)
	}
}

// observe follows the input stream's data tags with its own cursor and
// stamps when each sampled event's batch became readable.
func (s *spanLog) observe(ctx context.Context, log *sharedlog.Log, partitions int, r *run) {
	tags := make([]sharedlog.Tag, partitions)
	for p := range tags {
		tags[p] = core.DataTag(nexmark.EventStream, p)
	}
	cur := log.OpenCursor(tags, 0)
	for {
		recs, err := cur.NextBatchBlocking(ctx, 256)
		if err != nil {
			return
		}
		now := time.Now().UnixNano()
		for _, rec := range recs {
			b, err := core.DecodeBatch(rec.Payload)
			if err != nil || b.Kind != core.KindSource {
				continue
			}
			for _, x := range b.Records {
				if i, ok := r.index(x.EventTime); ok && i%traceEvery == 0 {
					s.visible[i/traceEvery].CompareAndSwap(0, now)
				}
			}
		}
	}
}

// stamps is one sampled event's contiguous hop boundaries (unix ns):
// due → visible → emitted → handed off → acked.
type stamps struct {
	event int
	t     [5]int64
}

// readerSkew is how far apart two independent readers may observe the
// same log record. The boundaries are stamped by different readers (the
// observer cursor, the ungated sink, the delivery sink's gated sink),
// each paying its own simulated read latency (about 1.3 ms, with a
// tail), so when a protocol makes two hops coincide, as aligned
// checkpoints do for emission and hand-off, their stamps can land in
// either order. An inversion up to this size is clamped to a
// zero-length hop; a larger one marks the event broken.
const readerSkew = int64(5 * time.Millisecond)

// sampled lists the window's sampled bids with every boundary stamped,
// and counts those whose boundaries are missing or out of order.
func (s *spanLog) sampled(p *pass, r *run) (out []stamps, broken int) {
	lo, hi := p.windowEvents(r)
	for i := (lo + traceEvery - 1) / traceEvery * traceEvery; i < hi; i += traceEvery {
		if r.in.events[i].kind != nexmark.KindBid {
			continue
		}
		j := i / traceEvery
		h := stamps{event: i, t: [5]int64{r.dueNs(i), s.visible[j].Load(), r.emitAt[i].Load(), s.handoffAt[j].Load(), r.ackAt[i].Load()}}
		ok := true
		for k := 1; k < len(h.t); k++ {
			switch {
			case h.t[k] == 0 || h.t[k] < h.t[k-1]-readerSkew:
				ok = false
			case h.t[k] < h.t[k-1]:
				h.t[k] = h.t[k-1]
			}
		}
		if !ok {
			broken++
			continue
		}
		out = append(out, h)
	}
	return out, broken
}

type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var hopNames = [4]string{"hop.ingress", "hop.process", "hop.commit", "hop.deliver"}

// spanList turns one repetition's sampled events and kills into spans:
// per sampled event an "event" root (due → ack) with the four hops as
// children, the SendVia call under hop.ingress and the Deliver call
// under hop.deliver; per kill a Kill call span and the recovery it
// caused (kill → first ack from the restarted instance).
func (s *spanLog) spanList(rep int, sampled []stamps, r *run) []span {
	var out []span
	for _, h := range sampled {
		id := fmt.Sprintf("rep%d-event%d", rep, h.event)
		j := h.event / traceEvery
		out = append(out, span{Trace: id, Name: "event", Start: h.t[0], End: h.t[4]})
		for k, name := range hopNames {
			out = append(out, span{Trace: id, Name: name, Parent: "event", Start: h.t[k], End: h.t[k+1]})
		}
		out = append(out,
			span{Trace: id, Name: "call.SendVia", Parent: "hop.ingress", Start: s.sendStart[j], End: s.sendEnd[j]},
			span{Trace: id, Name: "call.Deliver", Parent: "hop.deliver", Start: s.deliverStart[j].Load(), End: s.deliverEnd[j].Load()})
	}
	for k, kr := range r.kills {
		id := fmt.Sprintf("rep%d-kill%d", rep, k)
		out = append(out, span{Trace: id, Name: "call.Kill", Start: kr.atNs.Load(), End: kr.endNs.Load()})
		if a := kr.firstAckNs.Load(); a != 0 {
			out = append(out, span{Trace: id, Name: "recovery", Parent: "call.Kill", Start: kr.atNs.Load(), End: a})
		}
	}
	return out
}

// writeSpans stores spans as JSON lines at path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
