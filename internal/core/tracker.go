package core

import (
	"fmt"
	"sort"

	"impeller/internal/sharedlog"
)

// Classification of an input batch against committed progress
// (paper §3.3.3, the three cases).
type classification int

const (
	// classCommitted: the batch is covered by a commit — process it.
	classCommitted classification = iota
	// classUncommitted: the batch can never be committed (output of a
	// failed instance, or an aborted transaction) — discard it.
	classUncommitted
	// classUnknown: a later control record may commit it — buffer.
	classUnknown
)

func (c classification) String() string {
	switch c {
	case classCommitted:
		return "committed"
	case classUncommitted:
		return "uncommitted"
	default:
		return "unknown"
	}
}

// commitTracker classifies incoming data batches using the control
// records (progress markers, transaction commits/aborts) seen so far.
// Each task owns one tracker; trackers are not safe for concurrent use.
type commitTracker interface {
	// observeControl ingests a control record addressed to this
	// consumer's substream; lsn is the control record's position.
	observeControl(b *Batch, lsn LSN) error
	// classify judges a data batch at position lsn.
	classify(b *Batch, lsn LSN) classification
}

// --- Impeller progress markers ---

// lsnRange is a closed interval of LSNs committed by one marker, by the
// producer instance that appended the marker. The instance matters: a
// zombie's orphan batch can land between its replacement's first output
// and the replacement's marker — inside the replacement's range — and
// only the instance stamp distinguishes it from the records the marker
// actually covers.
type lsnRange struct {
	first, last LSN
	instance    uint64
}

// producerProgress tracks one upstream task's committed output ranges
// in this consumer's substream.
type producerProgress struct {
	maxInstance uint64
	ranges      []lsnRange // ascending, non-overlapping
	top         LSN        // max committed LSN (range end or marker LSN)
	hasTop      bool
}

// markerTracker implements the three-case algorithm of §3.3.3: it maps
// producer task ids to committed LSN ranges extracted from progress
// markers, and classifies data batches against them. Source batches
// (ingress data) are committed on arrival — the log is the canonical
// input.
type markerTracker struct {
	// myTag is the substream tag this consumer reads; markers carry the
	// OutFirst entry for it.
	myTag sharedlog.Tag
	prods map[TaskID]*producerProgress
}

func newMarkerTracker(myTag sharedlog.Tag) *markerTracker {
	return &markerTracker{myTag: myTag, prods: make(map[TaskID]*producerProgress)}
}

func (t *markerTracker) producer(id TaskID) *producerProgress {
	p := t.prods[id]
	if p == nil {
		p = &producerProgress{}
		t.prods[id] = p
	}
	return p
}

func (t *markerTracker) observeControl(b *Batch, lsn LSN) error {
	if b.Kind != KindMarker {
		return nil
	}
	m, err := DecodeMarker(b.Control)
	if err != nil {
		return err
	}
	return t.observeMarker(b, m, lsn)
}

// observeMarker ingests marker m, already decoded from b's control
// payload, appended at lsn.
func (t *markerTracker) observeMarker(b *Batch, m *ProgressMarker, lsn LSN) error {
	p := t.producer(b.Producer)
	if b.Instance > p.maxInstance {
		p.maxInstance = b.Instance
	}
	if first, ok := m.OutFirst[t.myTag]; ok {
		// The committed range is [OutFirst, markerLSN]: the marker's
		// own LSN is the shrunk upper bound (§3.5). Protocol invariants
		// (paper §3.3): ranges are well-formed and strictly monotonic
		// per producer — outputs follow the previous marker and precede
		// their own marker in the log's total order, and fencing makes
		// post-restart markers later still. A violation means log or
		// protocol corruption; fail loudly rather than misclassify.
		if first > lsn {
			return fmt.Errorf("core: marker invariant violated: range [%d, %d] inverted (producer %s)",
				first, lsn, b.Producer)
		}
		if p.hasTop && first <= p.top {
			return fmt.Errorf("core: marker invariant violated: range [%d, %d] overlaps committed top %d (producer %s)",
				first, lsn, p.top, b.Producer)
		}
		p.ranges = append(p.ranges, lsnRange{first: first, last: lsn, instance: b.Instance})
	}
	// Even without output for this substream the marker advances the
	// producer's committed top: everything below it that is not inside
	// a range can never be committed.
	if lsn > p.top || !p.hasTop {
		p.top = lsn
		p.hasTop = true
	}
	return nil
}

func (t *markerTracker) classify(b *Batch, lsn LSN) classification {
	if b.Kind == KindSource {
		return classCommitted
	}
	p, ok := t.prods[b.Producer]
	if !ok || !p.hasTop {
		// "A record from a producer that has not committed anything
		// also falls in this case" — unknown, buffer (§3.3.3).
		return classUnknown
	}
	if lsn > p.top {
		if b.Instance < p.maxInstance {
			// Zombie or dead instance: a marker from a newer instance
			// exists, so this batch can never be committed (§3.4).
			return classUncommitted
		}
		return classUnknown
	}
	// lsn <= top: committed iff inside some range appended by the same
	// instance; otherwise it lies before or between committed ranges —
	// or it is a fenced zombie's orphan that interleaved with the
	// covering instance's outputs — and can never be committed. A
	// marker only ever covers its own instance's outputs: the fence
	// guarantees every committed old-instance marker precedes the
	// replacement's first output in the log's total order.
	i := sort.Search(len(p.ranges), func(i int) bool { return p.ranges[i].last >= lsn })
	if i < len(p.ranges) && p.ranges[i].first <= lsn && p.ranges[i].instance == b.Instance {
		return classCommitted
	}
	return classUncommitted
}

// --- Kafka-style transactions ---

// txnProducer tracks commit state of one upstream producer's epochs.
type txnProducer struct {
	maxInstance uint64
	// committed[instance] is the highest committed epoch.
	committed map[uint64]uint64
	// aborted[instance] holds individually aborted epochs.
	aborted map[uint64]map[uint64]bool
}

// txnTracker classifies batches under the Kafka Streams transaction
// protocol: data batches carry their transaction epoch; commit and
// abort control records resolve them (paper §3.6).
type txnTracker struct {
	prods map[TaskID]*txnProducer
}

func newTxnTracker() *txnTracker {
	return &txnTracker{prods: make(map[TaskID]*txnProducer)}
}

func (t *txnTracker) producer(id TaskID) *txnProducer {
	p := t.prods[id]
	if p == nil {
		p = &txnProducer{committed: make(map[uint64]uint64), aborted: make(map[uint64]map[uint64]bool)}
		t.prods[id] = p
	}
	return p
}

func (t *txnTracker) observeControl(b *Batch, _ LSN) error {
	switch b.Kind {
	case KindTxnCommit:
		p := t.producer(b.Producer)
		if b.Instance > p.maxInstance {
			p.maxInstance = b.Instance
		}
		if b.Epoch > p.committed[b.Instance] {
			p.committed[b.Instance] = b.Epoch
		}
	case KindTxnAbort:
		p := t.producer(b.Producer)
		if b.Instance > p.maxInstance {
			p.maxInstance = b.Instance
		}
		ab := p.aborted[b.Instance]
		if ab == nil {
			ab = make(map[uint64]bool)
			p.aborted[b.Instance] = ab
		}
		ab[b.Epoch] = true
	}
	return nil
}

func (t *txnTracker) classify(b *Batch, _ LSN) classification {
	if b.Kind == KindSource || b.Epoch == 0 {
		// Non-transactional produce: committed on arrival, exactly as
		// Kafka's read_committed treats non-transactional messages.
		return classCommitted
	}
	p, ok := t.prods[b.Producer]
	if !ok {
		return classUnknown
	}
	if ab := p.aborted[b.Instance]; ab != nil && ab[b.Epoch] {
		return classUncommitted
	}
	if b.Epoch <= p.committed[b.Instance] {
		return classCommitted
	}
	if b.Instance < p.maxInstance {
		// The producer was fenced; the coordinator aborted its open
		// transaction.
		return classUncommitted
	}
	return classUnknown
}

// --- No gating (aligned checkpoints, unsafe) ---

// openTracker treats every batch as committed immediately. The aligned
// checkpoint protocol consumes eagerly and relies on checkpoint rewind
// plus sequence-number deduplication for exactly-once; unsafe makes no
// guarantee.
type openTracker struct{}

func (openTracker) observeControl(*Batch, LSN) error    { return nil }
func (openTracker) classify(*Batch, LSN) classification { return classCommitted }
