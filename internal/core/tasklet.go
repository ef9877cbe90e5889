package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// The cooperative tasklet engine (opt-in via Env.Engine): instead of one
// goroutine per task, a fixed pool of worker loops — one per core by
// default — runs every task as a non-blocking tasklet. A tasklet's step
// does a bounded slice of work (ingest, classify, process, flush) and
// yields; the loop round-robins its resident tasklets and parks only
// when none made progress. The blocking edges stay on dedicated
// goroutines and hand batches into the loop through bounded SPSC rings:
//
//   - a feeder goroutine owns the input cursor and blocks in
//     NextBatchBlocking, pushing record batches into the tasklet's input
//     ring (a full ring blocks the feeder — natural backpressure);
//   - a blocker goroutine runs the operations that must wait on the log
//     (commit's drain-and-mark, aligned-checkpoint completion); while one
//     is in flight the tasklet reports "blocked" and its step only polls
//     for the result, so the loop never stalls;
//   - the append batcher's completion callbacks post {tags, lsn} events
//     to a per-task done ring drained on the loop, instead of waking a
//     goroutine per completion.
//
// Ownership of all task state transfers between the loop, the feeder,
// and the blocker exclusively through channels and the rings' atomics,
// so the engine is race-detector clean. The correctness invariants are
// untouched: a step never yields inside a producer batch (so a commit
// can never cover half of one), drain-before-marker still runs on the
// blocker with exclusive ownership, and batch-exact classification is
// the same code path as the goroutine engine.

// EngineMode selects the task execution engine.
type EngineMode int

const (
	// EngineGoroutine is the default goroutine-per-task engine.
	EngineGoroutine EngineMode = iota
	// EngineTasklet is the cooperative engine: one event loop per core,
	// tasks scheduled as non-blocking tasklets.
	EngineTasklet
)

func (m EngineMode) String() string {
	switch m {
	case EngineGoroutine:
		return "goroutine"
	case EngineTasklet:
		return "tasklet"
	default:
		return fmt.Sprintf("engine(%d)", int(m))
	}
}

// ParseEngineMode parses an engine name as accepted by -engine.
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "", "goroutine":
		return EngineGoroutine, nil
	case "tasklet":
		return EngineTasklet, nil
	default:
		return EngineGoroutine, fmt.Errorf("core: unknown engine %q (want goroutine or tasklet)", s)
	}
}

// errEngineStopped terminates resident tasklets when the loop pool shuts
// down before their own context does.
var errEngineStopped = errors.New("core: tasklet engine stopped")

const (
	// taskletStepBudget bounds the work units (records processed, plus
	// whatever processors Charge) one step may consume before yielding.
	// Yields happen only at producer-batch boundaries, so a step may
	// overshoot by at most one batch's cost.
	taskletStepBudget = 512
	// taskletInputEvents is the input ring capacity in cursor batches; a
	// full ring blocks the feeder (backpressure toward the log).
	taskletInputEvents = 8
	// taskletDoneEvents sizes the append-completion ring: enough for the
	// batcher's whole in-flight window at defaults, with slack. Overflow
	// falls back to the direct mutex fold, so sizing is latency, not
	// correctness.
	taskletDoneEvents = 512
	// loopMaxPark bounds how long an idle loop sleeps between rounds;
	// wait() deadlines and notify pokes usually wake it much sooner.
	loopMaxPark = 5 * time.Millisecond
	// loopMinPark avoids timer churn when a deadline is essentially now.
	loopMinPark = 50 * time.Microsecond
)

// spsc is a bounded single-producer single-consumer ring. The producer
// and consumer synchronize through the head/tail atomics; the cap-1
// channels are pure wakeups (wake is typically the owning loop's notify
// channel, shared by every ring feeding that loop).
type spsc[T any] struct {
	buf   []T
	mask  uint64
	head  atomic.Uint64 // consumer position
	tail  atomic.Uint64 // producer position
	wake  chan struct{} // consumer-side wake; may be shared
	space chan struct{} // producer-side wake
}

func newSPSC[T any](capacity int, wake chan struct{}) *spsc[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &spsc[T]{
		buf:   make([]T, n),
		mask:  uint64(n - 1),
		wake:  wake,
		space: make(chan struct{}, 1),
	}
}

// poke delivers a non-blocking wakeup; a cap-1 channel coalesces them.
func poke(ch chan struct{}) {
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// tryPush enqueues v unless the ring is full.
func (r *spsc[T]) tryPush(v T) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	poke(r.wake)
	return true
}

// push blocks until the ring has space or ctx is done.
func (r *spsc[T]) push(ctx context.Context, v T) bool {
	for {
		if r.tryPush(v) {
			return true
		}
		select {
		case <-r.space:
		case <-ctx.Done():
			return false
		}
	}
}

// tryPop dequeues the oldest element, clearing its slot so the ring does
// not pin payloads.
func (r *spsc[T]) tryPop() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.tail.Load() {
		return zero, false
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero
	r.head.Store(head + 1)
	poke(r.space)
	return v, true
}

// tasklet is one unit of cooperatively scheduled work resident on a
// loop. step runs a bounded slice and reports (progress, done, err);
// wait reports how long until the tasklet next needs the CPU absent
// external events (its flush/commit deadlines). The loop delivers the
// terminal error on result exactly once.
type tasklet struct {
	name   string
	step   func() (progress bool, done bool, err error)
	wait   func() time.Duration
	result chan error
}

// taskLoop is one worker of the pool: it steps its resident tasklets
// round-robin and parks when none of them progressed.
type taskLoop struct {
	id       int
	notify   chan struct{} // cap 1; poked by rings, blockers, registration
	incoming chan *tasklet
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
	resident atomic.Int64  // sticky placement weight
	rounds   atomic.Uint64 // step rounds; the monitor's progress signal
}

func newTaskLoop(id int) *taskLoop {
	return &taskLoop{
		id:       id,
		notify:   make(chan struct{}, 1),
		incoming: make(chan *tasklet, 8),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// register hands a tasklet to the loop; if the pool already shut down
// the tasklet is finished immediately with errEngineStopped.
func (l *taskLoop) register(t *tasklet) {
	select {
	case l.incoming <- t:
		poke(l.notify)
	case <-l.quit:
		t.result <- errEngineStopped
	}
}

func (l *taskLoop) run() {
	defer close(l.done)
	// Pin the loop to one OS thread: the scheduler-jitter the engine
	// removes must not come back as thread migration.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var ts []*tasklet
	adopt := func() {
		for {
			select {
			case t := <-l.incoming:
				ts = append(ts, t)
			default:
				return
			}
		}
	}
	shutdown := func() {
		adopt()
		for _, t := range ts {
			t.result <- errEngineStopped
		}
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-l.quit:
			shutdown()
			return
		default:
		}
		adopt()
		progressed := false
		for i := 0; i < len(ts); {
			prog, done, err := ts[i].step()
			if prog {
				progressed = true
			}
			if done {
				ts[i].result <- err
				ts = append(ts[:i], ts[i+1:]...)
				continue
			}
			i++
		}
		l.rounds.Add(1)
		if progressed {
			continue
		}
		// Nothing moved: park until an event arrives, the earliest
		// tasklet deadline passes, or the pool closes.
		park := loopMaxPark
		for _, t := range ts {
			if w := t.wait(); w < park {
				park = w
			}
		}
		if park <= 0 {
			continue
		}
		if park < loopMinPark {
			park = loopMinPark
		}
		timer.Reset(park)
		select {
		case <-l.notify:
		case t := <-l.incoming:
			ts = append(ts, t)
		case <-l.quit:
			shutdown()
			return
		case <-timer.C:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// loopPool is the fixed set of worker loops for one Env. Placement is
// sticky per key so a restarted task instance lands on the same loop.
type loopPool struct {
	loops []*taskLoop

	mu       sync.Mutex
	assigned map[string]*taskLoop
}

func newLoopPool(n int) *loopPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &loopPool{assigned: make(map[string]*taskLoop)}
	for i := 0; i < n; i++ {
		l := newTaskLoop(i)
		p.loops = append(p.loops, l)
		go l.run()
	}
	return p
}

// place assigns key to the least-loaded loop (sticky across calls).
func (p *loopPool) place(key string) *taskLoop {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.assigned[key]; ok {
		return l
	}
	best := p.loops[0]
	for _, l := range p.loops[1:] {
		if l.resident.Load() < best.resident.Load() {
			best = l
		}
	}
	best.resident.Add(1)
	p.assigned[key] = best
	return best
}

// close stops every loop; resident tasklets are finished with
// errEngineStopped so their Run wrappers can unwind.
func (p *loopPool) close() {
	for _, l := range p.loops {
		l.quitOnce.Do(func() { close(l.quit) })
	}
	for _, l := range p.loops {
		<-l.done
	}
}

// --- task tasklet ---

type taskletEventKind uint8

const (
	evRecords taskletEventKind = iota // recs: one copied cursor batch
	evSeek                            // seek: cursor repositioned after invalidation
	evErr                             // err: fatal read error; feeder exited
)

// taskletEvent is one input-ring element from the feeder.
type taskletEvent struct {
	recs []*sharedlog.Record
	seek LSN
	err  error
	kind taskletEventKind
}

// doneEvent is one append completion posted to the owning loop.
type doneEvent struct {
	tags   []sharedlog.Tag // output substream tags; nil for change log
	lsn    LSN
	change bool
}

// taskletRun is the per-instance scheduling state of a task running on
// the cooperative engine. Only the current owner (loop, or blocker while
// blocked) touches it.
type taskletRun struct {
	ctx      context.Context
	in       *spsc[taskletEvent]
	blockReq chan func() error
	blockRes chan error
	// blocked marks a blocker operation in flight: steps only poll
	// blockRes until it completes, so the blocker has exclusive
	// ownership of all task state meanwhile.
	blocked bool
	// recs/ri is the partially ingested input event (resumable position;
	// always at a record boundary).
	recs []*sharedlog.Record
	ri   int
	// pendingDrain marks a queue drain paused by the step budget; it
	// resumes before any new input is ingested.
	pendingDrain bool
	// budget is the work remaining in the current step; processors
	// charge bulk work against it via ProcContext.Charge.
	budget      int
	nextFlush   time.Time
	nextCommit  time.Time
	feederDone  chan struct{}
	blockerDone chan struct{}
}

// runTasklet is Task.Run on the cooperative engine: the blocking
// prologue (recovery, processor open, cursor open) runs on the spawn
// goroutine, then the task registers as a tasklet and the spawn
// goroutine just waits for the terminal result.
func (t *Task) runTasklet(ctx context.Context) error {
	t.runCtx = ctx
	defer t.closeAppenders()
	recoverStart := time.Now()
	if err := t.recover(ctx); err != nil {
		return fmt.Errorf("task %s: recover: %w", t.ID, err)
	}
	t.Metrics.RecoveryNanos.Store(time.Since(recoverStart).Nanoseconds())
	if err := t.proc.Open(t); err != nil {
		return fmt.Errorf("task %s: open: %w", t.ID, err)
	}
	t.inCursor = t.log.OpenCursorOpts(t.inputTags, t.cursor, t.inputCursorOpts())

	now := t.env.Clock.Now()
	tl := &taskletRun{
		ctx:         ctx,
		in:          newSPSC[taskletEvent](taskletInputEvents, t.tlLoop.notify),
		blockReq:    make(chan func() error, 1),
		blockRes:    make(chan error, 1),
		nextFlush:   now.Add(DefaultFlushInterval),
		nextCommit:  now.Add(t.env.CommitInterval),
		feederDone:  make(chan struct{}),
		blockerDone: make(chan struct{}),
	}
	t.tl = tl

	feedCtx, stopFeed := context.WithCancel(ctx)
	go t.feed(feedCtx)
	go t.blockerLoop()

	result := make(chan error, 1)
	t.tlLoop.register(&tasklet{
		name:   string(t.ID),
		step:   t.taskletStep,
		wait:   t.taskletWait,
		result: result,
	})
	err := <-result

	// Teardown order matters: the feeder owns the input cursor and the
	// blocker may own the appender mid-commit; both must finish before
	// the deferred closeAppenders runs.
	stopFeed()
	<-tl.feederDone
	close(tl.blockReq)
	<-tl.blockerDone
	if errors.Is(err, errEngineStopped) && ctx.Err() != nil {
		err = ctx.Err()
	}
	return err
}

// feed is the cursor-waiter goroutine: it owns t.inCursor exclusively
// and converts blocking reads into input-ring events. Cursor state
// changes that the step machine must see in order (a post-invalidation
// seek) travel through the ring too.
func (t *Task) feed(ctx context.Context) {
	tl := t.tl
	defer close(tl.feederDone)
	for {
		if ctx.Err() != nil {
			return
		}
		recs, err := t.inCursor.NextBatchBlocking(ctx, t.readBatch)
		switch {
		case err == nil && len(recs) > 0:
			// The cursor's batch is a view into its internal buffer,
			// invalidated by the next fetch; the records themselves are
			// immutable and safely shared, so copying the slice header's
			// worth of pointers is enough.
			cp := make([]*sharedlog.Record, len(recs))
			copy(cp, recs)
			if !tl.in.push(ctx, taskletEvent{kind: evRecords, recs: cp}) {
				return
			}
		case err == nil:
			// Defensive: NextBatchBlocking does not return empty success.
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return
		case errors.Is(err, sharedlog.ErrCursorInvalidated):
			horizon := t.log.TrimHorizon()
			t.inCursor.Seek(horizon)
			if !tl.in.push(ctx, taskletEvent{kind: evSeek, seek: horizon}) {
				return
			}
		case sharedlog.IsRetryable(err):
			t.Metrics.Retries.Add(1)
			if !t.retry.sleep(ctx, t.retry.backoff(0)) {
				return
			}
		default:
			tl.in.push(ctx, taskletEvent{kind: evErr, err: err})
			return
		}
	}
}

// blockerLoop runs the task's blocking operations (commit,
// aligned-checkpoint completion) off the loop. At most one is in flight;
// blockRes is buffered so delivery never blocks, and the poke wakes the
// loop to collect the result promptly.
func (t *Task) blockerLoop() {
	tl := t.tl
	defer close(tl.blockerDone)
	for fn := range tl.blockReq {
		tl.blockRes <- fn()
		poke(t.tlLoop.notify)
	}
}

// blockOn hands fn to the blocker and puts the tasklet into the blocked
// state. Caller must yield immediately after.
func (t *Task) blockOn(fn func() error) {
	t.tl.blocked = true
	t.tl.blockReq <- fn
}

// taskletStep is one bounded slice of the task's processing loop. The
// phases mirror the goroutine engine's iteration — ingest, classify,
// drain, flush, commit — but each invocation is budgeted and every
// blocking edge is handed off instead of awaited.
func (t *Task) taskletStep() (progress, done bool, err error) {
	tl := t.tl
	if tl.blocked {
		select {
		case err := <-tl.blockRes:
			tl.blocked = false
			if err != nil {
				return true, true, err
			}
			return true, false, nil
		default:
			return false, false, nil
		}
	}
	if err := tl.ctx.Err(); err != nil {
		return true, true, err
	}
	if t.env.Faults.Crashed(t.node) {
		return true, true, fmt.Errorf("task %s: %w", t.ID, sim.ErrCrashed)
	}
	t.heartbeat()
	t.drainCompletions()

	tl.budget = taskletStepBudget
	progressed := false

	// Finish a budget-paused queue drain before ingesting new input.
	if tl.pendingDrain {
		progressed = true
		if err := t.drainQueueCoop(); err != nil {
			return true, true, fmt.Errorf("task %s: %w", t.ID, err)
		}
	}
	if !tl.pendingDrain {
		if tl.recs == nil {
			if ev, ok := tl.in.tryPop(); ok {
				progressed = true
				switch ev.kind {
				case evRecords:
					tl.recs, tl.ri = ev.recs, 0
				case evSeek:
					t.cursor = ev.seek
				case evErr:
					return true, true, fmt.Errorf("task %s: read: %w", t.ID, ev.err)
				}
			}
		} else {
			progressed = true
		}
		if tl.recs != nil && tl.budget > 0 {
			if err := t.ingestEventStep(); err != nil {
				return true, true, fmt.Errorf("task %s: %w", t.ID, err)
			}
			if tl.blocked {
				return true, false, nil
			}
		}
	}

	now := t.env.Clock.Now()
	if !now.Before(tl.nextFlush) {
		t.flushOutputs()
		tl.nextFlush = now.Add(DefaultFlushInterval)
		progressed = true
	}
	// A cascade commit waits until the released input is fully drained
	// (no budget-paused drain, no half-ingested event), so one upstream
	// marker triggers at most one commit here, as on the goroutine engine.
	if t.commitDue(now, tl.nextCommit, tl.recs == nil && !tl.pendingDrain) {
		// Commits drain in-flight appends and append the commit record —
		// blocking work, so it runs on the blocker with exclusive
		// ownership. Yielding here is always at a producer-batch
		// boundary: ingest pauses only between batches.
		tl.nextCommit = now.Add(t.env.CommitInterval)
		t.blockOn(func() error {
			if err := t.commit(tl.ctx); err != nil {
				return fmt.Errorf("task %s: commit: %w", t.ID, err)
			}
			return nil
		})
		return true, false, nil
	}
	return progressed, false, nil
}

// taskletWait reports the time until the task's next internal deadline;
// the loop parks at most this long when idle.
func (t *Task) taskletWait() time.Duration {
	tl := t.tl
	if tl.blocked {
		return loopMaxPark // the blocker pokes the loop on completion
	}
	now := t.env.Clock.Now()
	d := tl.nextFlush.Sub(now)
	if c := tl.nextCommit.Sub(now); c < d {
		d = c
	}
	return d
}

// ingestEventStep consumes the current input event from the resumable
// position tl.ri, mirroring ingestBatch record-for-record, but pausing
// (without consuming the record in hand) whenever the budget runs out
// and handing alignment completion to the blocker.
func (t *Task) ingestEventStep() error {
	tl := t.tl
	for tl.ri < len(tl.recs) {
		if tl.budget <= 0 {
			return nil // yield; resume at tl.ri next step
		}
		rec := tl.recs[tl.ri]
		b, err := DecodeBatch(rec.Payload)
		if err != nil {
			return err
		}
		port, group, tag := t.routeFor(rec)

		if b.Kind.isControl() {
			// Data queued ahead of this control record drains first so
			// classification happens at the control's exact LSN position
			// (the same order ingestBatch preserves).
			if len(t.queue) > 0 {
				if err := t.drainQueueCoop(); err != nil {
					return err
				}
				if tl.pendingDrain {
					return nil // budget out; rec is reprocessed next step
				}
			}
			t.cursor = rec.LSN + 1
			tl.ri++
			if b.Kind == KindBarrier && t.align != nil {
				complete, err := t.onBarrier(b, rec.LSN)
				if err != nil {
					return err
				}
				if complete {
					// The final barrier arrived: completing the alignment
					// snapshots synchronously and drains appends, so it
					// runs on the blocker; ingest resumes at tl.ri after.
					t.blockOn(func() error {
						if err := t.completeAlignment(); err != nil {
							return fmt.Errorf("task %s: %w", t.ID, err)
						}
						return nil
					})
					return nil
				}
				continue
			}
			if err := t.tracker.observeControl(b, rec.LSN); err != nil {
				return err
			}
			if err := t.drainQueueCoop(); err != nil {
				return err
			}
			if tl.pendingDrain {
				return nil
			}
			continue
		}

		t.cursor = rec.LSN + 1
		tl.ri++
		switch b.Kind {
		case KindSource, KindData:
			if fl, ok := t.groupFloor[group]; ok && rec.LSN < fl {
				// Below the group's handoff floor (same as ingestBatch).
				t.Metrics.DroppedBelowFloor.Add(uint64(len(b.Records)))
				continue
			}
			if t.align != nil && t.align.blocked(b.Producer) {
				t.align.buffer(queuedBatch{lsn: rec.LSN, port: port, group: group, tag: tag, batch: b})
				continue
			}
			t.queue = append(t.queue, queuedBatch{lsn: rec.LSN, port: port, group: group, tag: tag, batch: b})
			t.Metrics.Buffered.Add(uint64(len(b.Records)))
		default:
			// Foreign control-plane kinds; ignore defensively (same as
			// ingestBatch).
		}
	}
	tl.recs, tl.ri = nil, 0
	return t.drainQueueCoop()
}

// drainQueueCoop is drainQueue under the step budget: it pauses between
// producer batches when the budget runs out (tl.pendingDrain) instead
// of draining to exhaustion. Classification and processing are the
// shared code paths.
func (t *Task) drainQueueCoop() error {
	tl := t.tl
	for len(t.queue) > 0 {
		if tl.budget <= 0 {
			tl.pendingDrain = true
			return nil
		}
		head := t.queue[0]
		switch t.classify(head) {
		case classCommitted:
			t.queue = t.queue[1:]
			if err := t.processBatch(head); err != nil {
				return err
			}
		case classUncommitted:
			t.queue = t.queue[1:]
			t.Metrics.DroppedUncommitted.Add(uint64(len(head.batch.Records)))
			t.activity = true
		case classUnknown:
			tl.pendingDrain = false
			return nil
		}
	}
	tl.pendingDrain = false
	return nil
}

// drainCompletions folds append completions posted by the batcher into
// the progress accounting. Called from whichever goroutine currently
// owns the task (the loop each step; the blocker inside drainAppends),
// never both at once.
func (t *Task) drainCompletions() {
	r := t.doneRing
	if r == nil {
		return
	}
	for {
		ev, ok := r.tryPop()
		if !ok {
			return
		}
		t.foldProgress(ev)
	}
}

func (t *Task) foldProgress(ev doneEvent) {
	t.progressMu.Lock()
	if ev.change {
		if t.changeFirst == NoLSN || ev.lsn < t.changeFirst {
			t.changeFirst = ev.lsn
		}
	} else {
		for _, tag := range ev.tags {
			if cur, ok := t.outFirst[tag]; !ok || ev.lsn < cur {
				t.outFirst[tag] = ev.lsn
			}
		}
	}
	t.progressMu.Unlock()
}

// SchedulerProgress is a monotone counter the manager's monitor samples
// to tell a busy-but-healthy task from a dead one: the task's own
// heartbeat count, plus — on the cooperative engine — its loop's round
// counter, so a resident of a loop that is busy stepping other tasklets
// is not declared stale just because its own steps (and heartbeats)
// were delayed.
func (t *Task) SchedulerProgress() uint64 {
	p := t.progress.Load()
	if t.tlLoop != nil {
		p += t.tlLoop.rounds.Load()
	}
	return p
}

// --- sink tasklet ---

// runTasklet is Sink.Run on the cooperative engine: same feeder/ring
// shape as the task tasklet, with the shutdown sweep kept on the Run
// goroutine after the tasklet unwinds.
func (s *Sink) runTasklet(ctx context.Context) error {
	tags := s.tags()
	tagIndex := make(map[sharedlog.Tag]int, len(tags))
	for i, t := range tags {
		tagIndex[t] = i
	}
	retry := newRetrier(s.env, "", nil)
	readBatch := s.env.ReadBatch
	if readBatch <= 0 {
		readBatch = DefaultReadBatch
	}
	s.safe.Store(uint64(s.start))
	cur := s.env.Log.OpenCursor(tags, s.start)

	name := "sink/" + string(s.stream)
	loop := s.env.loops.place(name)
	in := newSPSC[taskletEvent](taskletInputEvents, loop.notify)
	feederDone := make(chan struct{})
	feedCtx, stopFeed := context.WithCancel(ctx)
	go func() {
		defer close(feederDone)
		for {
			if feedCtx.Err() != nil {
				return
			}
			recs, err := cur.NextBatchBlocking(feedCtx, readBatch)
			switch {
			case err == nil && len(recs) > 0:
				cp := make([]*sharedlog.Record, len(recs))
				copy(cp, recs)
				if !in.push(feedCtx, taskletEvent{kind: evRecords, recs: cp}) {
					return
				}
			case err == nil:
			case errors.Is(err, context.Canceled):
				return
			case errors.Is(err, sharedlog.ErrCursorInvalidated):
				s.noteInvalidation()
				cur.Seek(s.env.Log.TrimHorizon())
			case sharedlog.IsRetryable(err):
				if !retry.sleep(feedCtx, retry.backoff(0)) {
					return
				}
			default:
				in.push(feedCtx, taskletEvent{kind: evErr, err: err})
				return
			}
		}
	}()

	result := make(chan error, 1)
	loop.register(&tasklet{
		name: name,
		step: func() (bool, bool, error) {
			if err := ctx.Err(); err != nil {
				return true, true, err
			}
			ev, ok := in.tryPop()
			if !ok {
				return false, false, nil
			}
			if ev.kind == evErr {
				return true, true, ev.err
			}
			for _, rec := range ev.recs {
				if err := s.ingest(ctx, rec, tags, tagIndex); err != nil {
					return true, true, err
				}
			}
			if len(ev.recs) > 0 {
				s.updateSafe(ev.recs[len(ev.recs)-1].LSN + 1)
			}
			return true, false, nil
		},
		wait:   func() time.Duration { return loopMaxPark },
		result: result,
	})
	err := <-result
	stopFeed()
	<-feederDone
	if errors.Is(err, errEngineStopped) && ctx.Err() != nil {
		err = ctx.Err()
	}
	if ctx.Err() != nil {
		// Cancellation path: first ingest the events the feeder had
		// already read (the cursor is past them, so the sweep alone would
		// skip them), then run the usual drain-on-cancel sweep.
		for {
			ev, ok := in.tryPop()
			if !ok {
				break
			}
			if ev.kind != evRecords {
				continue
			}
			for _, rec := range ev.recs {
				if e := s.ingest(context.Background(), rec, tags, tagIndex); e != nil {
					break
				}
			}
			s.updateSafe(ev.recs[len(ev.recs)-1].LSN + 1)
		}
		s.shutdownSweep(cur, tags, tagIndex, readBatch)
		return ctx.Err()
	}
	return err
}
