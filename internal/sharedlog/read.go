package sharedlog

import (
	"context"
	"errors"
)

// The committed-read plane's public surface. None of these paths take
// the ordering mutex: candidates come from the sharded tag index and
// records from the lock-free committed store. Returned records are
// shared and immutable — callers must not modify them.

// ReadNext returns the first record carrying tag at an LSN >= from, or
// nil if no such record exists yet. It returns ErrTrimmed when the next
// record in range was garbage-collected.
func (l *Log) ReadNext(tag Tag, from LSN) (*Record, error) {
	l.stats.readNext.Add(1)
	rec, err := l.readNext(tag, from)
	return l.serveRead(rec, err)
}

func (l *Log) readNext(tag Tag, from LSN) (*Record, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	for {
		lsn, ok := l.index.next(tag, from)
		if !ok {
			if from < l.store.trimHorizon() {
				return nil, ErrTrimmed
			}
			return nil, nil
		}
		rec, err := l.resolve(lsn)
		if err == errRetryTrimmed {
			// Lost a race with Trim: the store retired lsn before the
			// index dropped it. Skip past it like the index will.
			from = lsn + 1
			continue
		}
		return rec, err
	}
}

// ReadNextAny returns the earliest record carrying any of the tags at an
// LSN >= from, or nil if none exists yet. Impeller tasks read all their
// input substreams through one global cursor this way: the shared log's
// total order interleaves a task's inputs and the upstream progress
// markers in a single sequence (paper §3.2, "Reading from multiple
// inputs").
func (l *Log) ReadNextAny(tags []Tag, from LSN) (*Record, error) {
	l.stats.readNextAny.Add(1)
	rec, err := l.readNextAny(tags, from)
	return l.serveRead(rec, err)
}

func (l *Log) readNextAny(tags []Tag, from LSN) (*Record, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	for {
		best := MaxLSN
		found := false
		l.index.pub.RLock() // one consistent view across tags (see tagIndex.pub)
		for _, tag := range tags {
			if lsn, ok := l.index.next(tag, from); ok && lsn < best {
				best = lsn
				found = true
			}
		}
		l.index.pub.RUnlock()
		if !found {
			if from < l.store.trimHorizon() {
				return nil, ErrTrimmed
			}
			return nil, nil
		}
		rec, err := l.resolve(best)
		if err == errRetryTrimmed {
			from = best + 1
			continue
		}
		return rec, err
	}
}

// errRetryTrimmed is an internal sentinel: the index offered an LSN the
// store had already retired (a Trim race). The search retries past it.
var errRetryTrimmed = errors.New("sharedlog: candidate trimmed mid-read")

// resolve turns an indexed candidate LSN into its record, checking
// replica availability first.
func (l *Log) resolve(lsn LSN) (*Record, error) {
	if !l.available(lsn) {
		return nil, ErrUnavailable
	}
	l.chargeFaultDelay(lsn)
	rec, err := l.store.get(lsn)
	if err != nil {
		return nil, errRetryTrimmed
	}
	if rec == nil {
		// The index never references unassigned LSNs; treat like a
		// trim race for safety.
		return nil, errRetryTrimmed
	}
	return rec, nil
}

// serveRead finishes a read: cache hits skip the storage latency, and
// misses both pay it and populate the cache. Records are immutable, so
// the cache stores the same shared instance the store publishes.
func (l *Log) serveRead(rec *Record, err error) (*Record, error) {
	if err != nil || rec == nil {
		if err == nil {
			l.chargeRead()
		}
		return rec, err
	}
	if cached, ok := l.cache.get(rec.LSN); ok {
		return cached, nil
	}
	l.chargeRead()
	l.cache.put(rec.LSN, rec)
	return rec, nil
}

func (l *Log) chargeRead() {
	if m := l.cfg.ReadLatency; m != nil {
		l.cfg.Clock.Sleep(m.Sample())
	}
}

// ReadNextBlocking behaves like ReadNext but waits until a record
// becomes readable or ctx is done.
func (l *Log) ReadNextBlocking(ctx context.Context, tag Tag, from LSN) (*Record, error) {
	l.stats.readNext.Add(1)
	return l.blockingRead(ctx, []Tag{tag}, from, func(from LSN) (*Record, error) {
		return l.readNext(tag, from)
	})
}

// ReadNextAnyBlocking behaves like ReadNextAny but waits until a record
// becomes readable or ctx is done.
func (l *Log) ReadNextAnyBlocking(ctx context.Context, tags []Tag, from LSN) (*Record, error) {
	l.stats.readNextAny.Add(1)
	return l.blockingRead(ctx, tags, from, func(from LSN) (*Record, error) {
		return l.readNextAny(tags, from)
	})
}

// blockingRead runs check until it yields a record or error, parking on
// a per-tag waiter between attempts. A commit wakes only the waiters of
// the tags it carries, so a reader is never woken by unrelated traffic
// (Stats' UsefulWakeups / ReaderWakeups ratio measures exactly this).
func (l *Log) blockingRead(ctx context.Context, tags []Tag, from LSN, check func(LSN) (*Record, error)) (*Record, error) {
	woken := false
	finish := func(rec *Record, err error) (*Record, error) {
		if woken {
			l.stats.usefulWakeups.Add(1)
		}
		if rec == nil {
			return nil, err
		}
		return l.serveRead(rec, err)
	}
	for {
		rec, err := check(from)
		if err != nil || rec != nil {
			return finish(rec, err)
		}
		w := newWaiter()
		l.index.register(tags, w)
		// Re-check: a record may have committed between the miss above
		// and the registration; its commit saw no waiter to wake.
		rec, err = check(from)
		if err != nil || rec != nil {
			l.index.unregister(tags, w)
			return finish(rec, err)
		}
		select {
		case <-ctx.Done():
			l.index.unregister(tags, w)
			return nil, ctx.Err()
		case <-l.done:
			l.index.unregister(tags, w)
			return nil, ErrClosed
		case <-w.ch:
			woken = true
		}
		// The woken tag's commit detached w from that tag; drop the
		// registrations the other tags may still hold.
		l.index.unregister(tags, w)
	}
}

// ReadPrev returns the last record carrying tag at an LSN <= from, or
// nil if none exists. Reading the tail of a task-log substream during
// recovery is ReadPrev(tag, MaxLSN). It resolves and serves through the
// same path as readNext, so a record already pulled by a forward read
// is a cache hit here too — recovery's backward marker scan used to
// bypass the cache and charge the read latency unconditionally on top
// of the replica fault delay, double-charging every warmed record.
func (l *Log) ReadPrev(tag Tag, from LSN) (*Record, error) {
	l.stats.readPrev.Add(1)
	rec, err := l.readPrev(tag, from)
	return l.serveRead(rec, err)
}

func (l *Log) readPrev(tag Tag, from LSN) (*Record, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	lsn, ok := l.index.prev(tag, from)
	if !ok {
		return nil, nil
	}
	if lsn < l.store.trimHorizon() {
		return nil, ErrTrimmed
	}
	rec, err := l.resolve(lsn)
	if err == errRetryTrimmed {
		// Lost a race with Trim; backward reads do not skip, so report it.
		return nil, ErrTrimmed
	}
	return rec, err
}

// Read returns the record at exactly lsn, or nil if that LSN has not
// been assigned. It returns ErrTrimmed below the trim horizon.
func (l *Log) Read(lsn LSN) (*Record, error) {
	l.stats.readExact.Add(1)
	l.chargeRead()
	if l.closed.Load() {
		return nil, ErrClosed
	}
	rec, err := l.store.get(lsn)
	if err != nil || rec == nil {
		return nil, err
	}
	if !l.available(lsn) {
		return nil, ErrUnavailable
	}
	l.chargeFaultDelay(lsn)
	return rec, nil
}

// SetAux attaches auxiliary data to the record at lsn (Boki aux-data).
// Aux data is advisory: it is not replicated with the record and may be
// overwritten by concurrent setters. Committed records are immutable,
// so the store republishes a copy carrying the aux bytes.
func (l *Log) SetAux(lsn LSN, aux []byte) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if err := l.store.setAux(lsn, aux); err != nil {
		return err
	}
	// A cached stale instance would hide the freshly attached aux from
	// cache hits; refresh it if present.
	if rec, err := l.store.get(lsn); err == nil && rec != nil {
		l.cache.update(lsn, rec)
	}
	if l.dur != nil {
		l.dur.writeAux(lsn, aux)
	}
	return nil
}

// Trim garbage-collects every record with LSN < upTo (the shared log's
// prefix-trim API, paper §3.5). Trimming is idempotent and monotonic.
func (l *Log) Trim(upTo LSN) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if tail := l.store.committedTail(); upTo > tail {
		upTo = tail
	}
	if upTo <= l.store.trimHorizon() {
		return nil
	}
	// Publication order: horizon first (readers classify the region as
	// trimmed), then the store retires records, then the index forgets
	// them. A reader racing in between sees ErrTrimmed or a still-live
	// record — never a torn lookup.
	l.store.trim(upTo)
	l.index.prune(upTo)
	l.cache.invalidate(upTo)
	l.stats.trims.Add(1)
	if l.dur != nil {
		l.dur.writeTrim(upTo)
	}
	return nil
}

// CountTag reports how many live records carry tag; used by tests and
// the GC ablation.
func (l *Log) CountTag(tag Tag) int {
	return l.index.count(tag)
}
