package core

import (
	"context"
	"errors"
	"time"

	"impeller/internal/sharedlog"
)

// commit performs the periodic exactly-once bookkeeping for the task's
// configured protocol. For Impeller this is one conditional multi-tag
// append (paper §3.3); for Kafka transactions it is the two-phase
// protocol of §3.6; aligned checkpoints are driven by barriers rather
// than the commit tick; unsafe does nothing.
func (t *Task) commit(ctx context.Context) error {
	switch t.env.Protocol {
	case ProtoProgressMarker:
		return t.commitMarker(ctx)
	case ProtoKafkaTxn:
		return t.commitTxn(ctx)
	case ProtoAlignedCheckpoint, ProtoUnsafe:
		t.flushOutputs()
		return t.drainAppends()
	default:
		return errors.New("core: unknown protocol")
	}
}

// commitDue is the commit schedule both engines share (DESIGN.md §2.5).
// The CommitInterval timer (deadline) bounds every stage. Under progress
// markers a task also commits as soon as it has processed input that an
// upstream marker released, so a multi-stage query pays one commit wait
// at the stage fed by the source instead of one per stage. drained
// reports that the loop has finished with the input in hand, so one
// upstream marker triggers at most one cascade commit. Source input is
// committed on arrival and never cascades: source-fed stages keep the
// timer alone.
func (t *Task) commitDue(now, deadline time.Time, drained bool) bool {
	return !now.Before(deadline) || (t.released && drained)
}

// commitMarker writes one progress marker: a consistent cut of input,
// output, and state-change progress, atomically visible in every
// downstream substream, the task log, and the change log through the
// log's multi-tag append (paper §3.3.1, Figure 4 and Figure 6).
func (t *Task) commitMarker(ctx context.Context) error {
	t.flushOutputs()
	if err := t.drainAppends(); err != nil {
		return err
	}
	if !t.activity && !t.firstCommit {
		return nil
	}

	t.progressMu.Lock()
	m := &ProgressMarker{
		InputEnd:        t.inputEnd(),
		ChangeFirst:     t.changeFirst,
		SeqEnd:          t.outSeq,
		CheckpointEpoch: t.ckptEpoch,
	}
	if len(t.outFirst) > 0 {
		m.OutFirst = make(map[sharedlog.Tag]LSN, len(t.outFirst))
		for tag, lsn := range t.outFirst {
			m.OutFirst[tag] = lsn
		}
	}
	t.progressMu.Unlock()

	// The marker's tag set (every downstream substream, the task log,
	// the change log) is precomputed at construction: t.markerTags.
	t.assertAppendsDrained("progress marker")

	// Epoch on a marker batch carries the assignment epoch the instance
	// runs under; recovery reads it off the last marker to bound its
	// handoff-floor scan (applyHandoffFloors).
	ctrl := m.Encode()
	payload := (&Batch{
		Kind:     KindMarker,
		Producer: t.ID,
		Instance: t.Instance,
		Epoch:    t.assignEpoch,
		Control:  ctrl,
	}).Encode()

	// The conditional append fences zombies: it succeeds only while the
	// metadata store still maps our task id to our instance number
	// (paper §3.4). Transient log faults are retried — the guard makes
	// the retry safe: either no attempt committed (retry is a fresh
	// try) or one did and the next returns ErrCondFailed only if we
	// were fenced meanwhile. A fencing rejection is fatal, never
	// retried: the answer cannot change.
	var markerLSN LSN
	err := t.retry.do(ctx, "marker append", func() error {
		var e error
		markerLSN, e = t.log.ConditionalAppend(t.markerTags, payload, InstanceKey(t.ID), t.Instance)
		return e
	})
	if errors.Is(err, sharedlog.ErrCondFailed) {
		return ErrZombie
	}
	if err != nil {
		return err
	}
	if t.env.GC != nil {
		// Everything at or below the committed InputEnd is consumed; we
		// still need our latest marker (and the change-log suffix,
		// whose floor the checkpointer reports separately).
		floor := markerLSN
		if in := t.inputEnd(); in != NoLSN && in+1 < floor {
			floor = in + 1
		}
		if !t.stage.Stateful || t.env.SnapshotInterval > 0 {
			t.env.GC.Report(t.ID, floor)
		}
	}
	t.Metrics.Appends.Add(1)
	t.Metrics.Markers.Add(1)
	t.Metrics.MarkerBytes.Add(uint64(len(ctrl)))
	t.Metrics.MarkerBytesUnshrunk.Add(uint64(m.unshrunkSize(len(ctrl))))

	t.resetProgress()
	return nil
}

func (t *Task) resetProgress() {
	t.progressMu.Lock()
	clear(t.outFirst) // the committed marker holds its own copy
	t.changeFirst = NoLSN
	t.progressMu.Unlock()
	t.activity = false
	t.firstCommit = false
	t.released = false
}

// --- Kafka Streams transaction protocol (paper §3.6) ---

// txnTouched tracks the output substream tags registered with the
// coordinator for the current transaction.
func (t *Task) txnRegister(tags []sharedlog.Tag) {
	if t.txnTouchedSet == nil {
		t.txnTouchedSet = make(map[sharedlog.Tag]bool)
	}
	var fresh []sharedlog.Tag
	for _, tag := range tags {
		if !t.txnTouchedSet[tag] {
			t.txnTouchedSet[tag] = true
			fresh = append(fresh, tag)
		}
	}
	if len(fresh) == 0 {
		return
	}
	// Registration is the synchronous part of phase one: "before a task
	// can append to any stream, it must register the stream name and
	// substream identifier with the coordinator" (§3.6).
	t.txn.Register(t.ID, t.Instance, t.epoch, fresh)
}

// commitTxn runs the two-phase commit. Phase one (pre-commit) is
// synchronous; phase two (commit markers to every touched substream,
// the offsets record, the final commit record) runs asynchronously in
// the coordinator — but a new transaction cannot commit before the
// previous one completes, so short commit intervals stall (paper §3.6,
// §5.3.2; the CommitStalls metric counts these waits).
func (t *Task) commitTxn(ctx context.Context) error {
	t.flushOutputs()
	if err := t.drainAppends(); err != nil {
		return err
	}
	if !t.activity && !t.firstCommit {
		return nil
	}
	if t.pendingP2 != nil {
		select {
		case <-t.pendingP2:
		default:
			t.Metrics.CommitStalls.Add(1)
			select {
			case <-t.pendingP2:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	// Also register the change log with the coordinator so its commit
	// marker covers the epoch's state changes.
	if t.stage.Stateful && t.changedThisEpoch {
		t.txnRegister([]sharedlog.Tag{ChangeLogTag(t.ID)})
	}

	touched := make([]sharedlog.Tag, 0, len(t.txnTouchedSet))
	for tag := range t.txnTouchedSet {
		touched = append(touched, tag)
	}
	offsets := &ProgressMarker{InputEnd: t.inputEnd(), SeqEnd: t.outSeq}

	t.assertAppendsDrained("transaction prepare")
	done, err := t.txn.Prepare(t.ID, t.Instance, t.epoch, touched, offsets)
	if err != nil {
		if errors.Is(err, ErrZombie) {
			return ErrZombie
		}
		return err
	}
	t.Metrics.Markers.Add(1) // one committed transaction ≈ one progress unit
	t.pendingP2 = done
	t.epoch++
	t.txnTouchedSet = nil
	t.changedThisEpoch = false
	t.activity = false
	t.firstCommit = false
	return nil
}
