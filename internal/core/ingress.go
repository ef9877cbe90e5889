package core

import (
	"context"
	"sync"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/wire"
)

// Ingress materializes external input records as shared-log entries
// (paper §3.2, Figure 2 steps ①–③: gateway → data ingress → log).
// Generators call Send; the ingress batches per destination substream
// and flushes on its interval (the paper's generators flush every
// 10–100 ms). Source batches are committed on arrival — the log is the
// canonical input — so the ingress needs no progress markers; under the
// aligned-checkpoint protocol it additionally injects barriers when the
// coordinator starts a checkpoint, acting as the query's source
// operator.
type Ingress struct {
	// ID names this writer, e.g. "ingress/0"; multiple generators write
	// concurrently under distinct ids.
	ID TaskID

	stream     StreamID
	partitions int
	env        *Env
	ckpt       *CkptCoordinator
	retry      *retrier

	// batched selects the AppendBatch flush path (one group commit per
	// flush instead of one concurrent append per substream); set from
	// Env.Batch at construction, off when MaxRecords is pinned to 1.
	batched bool

	// flushMu serializes flushes, so a Flush returns only once every
	// record sent before it is appended, including records an
	// overlapping flush (Run's ticker) took first. It also keeps one
	// writer's batches in sequence order per substream when a failed
	// flush re-buffers its records: downstream dedup is a per-producer
	// floor and would drop a lower sequence number appended late.
	flushMu  sync.Mutex
	mu       sync.Mutex
	bufs     []*batchBuf
	seq      uint64
	sent     uint64
	reserved uint64 // highest seq persisted to the log's metadata KV
}

// seqReservationKey is the log-metadata key an ingress writer reserves
// its sequence counter under, so a writer restarted after a power
// failure resumes above every sequence number that may already be
// durable. Downstream dedup is a per-producer floor, so the gap a crash
// leaves between the reservation and the last durable record is safe.
func seqReservationKey(id TaskID) string { return "iseq/" + string(id) }

// NewIngress builds an ingress writer for stream with the given
// substream count (the consuming stage's parallelism).
func NewIngress(id TaskID, stream StreamID, partitions int, env *Env, ckpt *CkptCoordinator) *Ingress {
	bufs := make([]*batchBuf, partitions)
	for i := range bufs {
		bufs[i] = &batchBuf{}
	}
	g := &Ingress{
		ID: id, stream: stream, partitions: partitions, env: env, ckpt: ckpt,
		bufs:    bufs,
		batched: env.Batch.withDefaults().MaxRecords > 1,
		retry:   newRetrier(env, ComputeNode(id), nil),
	}
	// Resume the sequence counter above this writer's durable
	// reservation (zero on a fresh log): records sent after a
	// whole-cluster restart must not collide with sequence numbers the
	// downstream dedup floors already absorbed.
	if v, ok := env.Log.Meta().Get(seqReservationKey(id)); ok {
		g.seq = v
		g.reserved = v
	}
	return g
}

// Send buffers one input record; key selects the substream.
func (g *Ingress) Send(key, value []byte, eventTime int64) {
	g.mu.Lock()
	g.seq++
	g.sent++
	sub := Partition(key, g.partitions)
	g.bufs[sub].add(Record{Seq: g.seq, EventTime: eventTime, Key: key, Value: value})
	g.mu.Unlock()
}

// Sent reports how many records have been accepted.
func (g *Ingress) Sent() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sent
}

// Flush appends all buffered batches — one AppendBatch group commit
// covering every non-empty substream when batching is enabled, or one
// concurrent append per substream when it is not — and, under aligned
// checkpoints, injects a barrier when the coordinator has started a new
// checkpoint.
func (g *Ingress) Flush() error {
	return g.flush(context.Background())
}

type ingressPending struct {
	sub     int
	records []Record
}

func (g *Ingress) flush(ctx context.Context) error {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	g.mu.Lock()
	var out []ingressPending
	for sub, buf := range g.bufs {
		if len(buf.records) > 0 {
			out = append(out, ingressPending{sub: sub, records: buf.take()})
		}
	}
	reserve := uint64(0)
	if len(out) > 0 && g.seq > g.reserved {
		reserve = g.seq
		g.reserved = g.seq
	}
	g.mu.Unlock()

	// Reserve before appending: the metadata journal entry reaches the
	// log's WAL (and is synced) before any of this flush's data frames,
	// so if a power failure preserves a data record, the reservation
	// covering its sequence number is durable too.
	if reserve > 0 {
		g.env.Log.Meta().Set(seqReservationKey(g.ID), reserve)
	}

	var err error
	if g.batched {
		err = g.flushBatched(ctx, out)
	} else {
		err = g.flushSingly(ctx, out)
	}
	if err != nil {
		return err
	}

	if g.ckpt != nil {
		if epoch, ok := g.ckpt.BarrierEpoch(g.ID); ok {
			// One atomic multi-tag append delivers the barrier to every
			// substream; the source's "state" (its send counter) needs
			// no snapshot because the log retains the input.
			tags := make([]sharedlog.Tag, g.partitions)
			for i := range tags {
				tags[i] = DataTag(g.stream, i)
			}
			payload := (&Batch{Kind: KindBarrier, Producer: g.ID, Instance: 1, Epoch: epoch}).Encode()
			err := g.retry.do(ctx, "barrier append", func() error {
				_, e := g.env.Log.Append(tags, payload)
				return e
			})
			if err != nil {
				// Not acked: the coordinator times the epoch out and
				// aborts it; the next flush injects the next barrier.
				return err
			}
			g.ckpt.Ack(g.ID, epoch)
		}
	}
	return nil
}

// flushBatched ships every non-empty substream's batch through one
// AppendBatch group commit: one simulated append latency and one
// sequencer interaction for the whole flush, instead of one per
// substream. The log either commits the whole group or fails before
// committing anything, so error handling re-buffers everything.
func (g *Ingress) flushBatched(ctx context.Context, out []ingressPending) error {
	if len(out) == 0 {
		return nil
	}
	entries := make([]sharedlog.AppendEntry, len(out))
	bufs := make([]*wire.Buf, len(out))
	for i, p := range out {
		batch := Batch{Kind: KindSource, Producer: g.ID, Instance: 1, Records: p.records}
		eb := wire.GetBuf()
		eb.B = batch.AppendTo(eb.B)
		bufs[i] = eb
		entries[i] = sharedlog.AppendEntry{
			Tags:    []sharedlog.Tag{DataTag(g.stream, p.sub)},
			Payload: eb.B,
		}
	}
	err := g.retry.do(ctx, "ingress append", func() error {
		_, e := g.env.Log.AppendBatch(entries)
		return e
	})
	for _, eb := range bufs {
		wire.PutBuf(eb)
	}
	if err != nil {
		// Input must never be silently lost: put every substream's
		// records back at the front of its buffer (they keep their
		// assigned sequence numbers, so a later re-append preserves
		// per-substream order and exact dedup) and let a future flush
		// retry.
		g.mu.Lock()
		for _, p := range out {
			g.rebufferLocked(p)
		}
		g.mu.Unlock()
		return err
	}
	return nil
}

// flushSingly is the unbatched path (Env.Batch.MaxRecords == 1): one
// append per non-empty substream, issued concurrently — the dataplane
// as it was before group commit, kept for the batching ablation.
func (g *Ingress) flushSingly(ctx context.Context, out []ingressPending) error {
	var wg sync.WaitGroup
	errs := make([]error, len(out))
	for i, p := range out {
		wg.Add(1)
		go func(i int, p ingressPending) {
			defer wg.Done()
			batch := &Batch{Kind: KindSource, Producer: g.ID, Instance: 1, Records: p.records}
			payload := batch.Encode()
			errs[i] = g.retry.do(ctx, "ingress append", func() error {
				_, err := g.env.Log.Append([]sharedlog.Tag{DataTag(g.stream, p.sub)}, payload)
				return err
			})
			if errs[i] != nil {
				g.mu.Lock()
				g.rebufferLocked(p)
				g.mu.Unlock()
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rebufferLocked puts a failed flush's records back at the front of
// their substream buffer. Caller holds g.mu.
func (g *Ingress) rebufferLocked(p ingressPending) {
	buf := g.bufs[p.sub]
	buf.records = append(p.records, buf.records...)
	for _, r := range p.records {
		buf.bytes += 16 + len(r.Key) + len(r.Value)
	}
}

// Run flushes every interval until ctx is done, then performs one final
// flush so buffered records are not lost on shutdown. A flush that
// fails even after retries (a long outage) keeps its records buffered
// and is re-attempted at the next interval rather than killing the
// ingress — losing input would break the exactly-once invariant at the
// source.
func (g *Ingress) Run(ctx context.Context, interval time.Duration) error {
	for {
		select {
		case <-ctx.Done():
			// Final flush on a fresh context: the run context is
			// already cancelled, but buffered input must still reach
			// the log (retries bounded by the policy's OpTimeout).
			return g.flush(context.Background())
		case <-g.env.Clock.After(interval):
			if err := g.flush(ctx); err != nil && ctx.Err() != nil {
				return g.flush(context.Background())
			}
		}
	}
}
