package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"impeller"
	"impeller/internal/nexmark"
)

// stampSentinel is the event time inputs are generated with; its
// encoding marks where each payload's DateTime field sits, so the field
// can be set to the event's due time once the run's start is known.
const stampSentinel = int64(0x3ad17c59e2b49f01)

// event is one pregenerated NEXMark input.
type event struct {
	key     []byte
	payload []byte
	kind    nexmark.EventKind
	dtOff   int32 // offset of the payload's DateTime field
	bidder  uint64
	price   uint64
}

// inputs is a run's whole input, generated from the seed before the
// clock starts. Event i is due at start + i*interval and is sent by
// sender i % senders through ingress writer i % senders.
type inputs struct {
	events   []event
	interval int64 // µs between consecutive due times
	senders  int
	bids     int
}

// maxSenders caps the sending goroutines; fewer are used on hosts with
// fewer CPUs.
const maxSenders = 2

func senderCount() int {
	if n := runtime.NumCPU(); n < maxSenders {
		return n
	}
	return maxSenders
}

// generate builds n events at rate events/s. Each sender draws from its
// own deterministic generator, so the same seed gives the same inputs.
func generate(seed uint64, rate, n int) (*inputs, error) {
	if rate <= 0 || 1_000_000%rate != 0 {
		return nil, fmt.Errorf("rate %d must divide 1e6 so due times are whole microseconds", rate)
	}
	in := &inputs{
		events:   make([]event, n),
		interval: int64(1_000_000 / rate),
		senders:  senderCount(),
	}
	gens := make([]*nexmark.Generator, in.senders)
	for g := range gens {
		gens[g] = nexmark.NewGenerator(seed*64 + uint64(g) + 1)
	}
	var mark [8]byte
	binary.LittleEndian.PutUint64(mark[:], uint64(stampSentinel))
	for i := range in.events {
		ev := gens[i%in.senders].Next(stampSentinel)
		off := bytes.Index(ev.Payload, mark[:])
		if off < 0 {
			return nil, fmt.Errorf("event %d: DateTime field not found", i)
		}
		e := event{
			key:     binary.BigEndian.AppendUint64(nil, uint64(i)),
			payload: ev.Payload,
			kind:    ev.Kind,
			dtOff:   int32(off),
		}
		if ev.Kind == nexmark.KindBid {
			bid, err := nexmark.DecodeBid(ev.Payload)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			e.bidder, e.price = bid.Bidder, bid.Price
			in.bids++
		}
		in.events[i] = e
	}
	return in, nil
}

// stamp sets every payload's DateTime (and an auction's Expires, 10 s
// later) to the event's due time for a run starting at startUs.
func (in *inputs) stamp(startUs int64) {
	for i := range in.events {
		e := &in.events[i]
		due := startUs + int64(i)*in.interval
		binary.LittleEndian.PutUint64(e.payload[e.dtOff:], uint64(due))
		if e.kind == nexmark.KindAuction {
			binary.LittleEndian.PutUint64(e.payload[e.dtOff+8:], uint64(due+10_000_000))
		}
	}
}

// sendLog records, per event, when its sender called SendVia relative
// to the event's due time, and (traced runs) how long the call took.
type sendLog struct {
	lateUs   []int32
	callNs   []int32 // nil unless traced
	failures atomic.Int64
}

// minSleep is the shortest sleep a sender takes while ahead of its
// schedule. Waking for every event would cost tens of thousands of timer
// wake-ups per second; waking at most this often sends the events that
// fell due meanwhile together, each at most this much late (and the
// lateness is recorded and counted in its latency).
const minSleep = 500 * time.Microsecond

// send runs the open-loop sender: every event goes out at its due time,
// or at once if the sender is behind, whatever the system does. A stall
// never drops or delays an event's schedule; it only makes the event
// late, and the lateness is recorded.
func (in *inputs) send(app *impeller.App, start time.Time, log *sendLog, spans *spanLog) {
	startUs := start.UnixMicro()
	var wg sync.WaitGroup
	for g := 0; g < in.senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(in.events); i += in.senders {
				dueUs := startUs + int64(i)*in.interval
				now := time.Now()
				if wait := time.UnixMicro(dueUs).Sub(now); wait > 0 {
					time.Sleep(max(wait, minSleep))
					now = time.Now()
				}
				e := &in.events[i]
				err := app.SendVia(nexmark.EventStream, g, e.key, e.payload, dueUs)
				if log.callNs != nil {
					end := time.Now()
					log.callNs[i] = int32(end.Sub(now))
					spans.send(i, now, end)
				}
				if err != nil {
					log.failures.Add(1)
				}
				log.lateUs[i] = int32(now.Sub(time.UnixMicro(dueUs)) / time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
}
