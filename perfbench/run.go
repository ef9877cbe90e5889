package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/wal"
)

// workload names only the settings that define it; everything else
// (engine, batch sizes, read batch, cache, commit interval) stays at the
// engine's defaults.
type workload struct {
	name     string
	query    int
	protocol impeller.Protocol
	rate     int // offered events/s, open loop
	durable  bool
	kills    int // window-stage task kills in each repetition's measured window
}

var workloads = []workload{
	{name: "q1-durable", query: 1, protocol: impeller.ProgressMarker, rate: 20000, durable: true},
	{name: "q12-aligned", query: 12, protocol: impeller.AlignedCheckpoint, rate: 40000},
	{name: "q12-kill", query: 12, protocol: impeller.ProgressMarker, rate: 10000, kills: 2},
}

const (
	// parallelism is every stage's task count.
	parallelism = 2
	// warmup runs before the measured window; its outputs are checked
	// but its latencies are discarded.
	warmup = time.Second
	// drainIdle ends the drain after this long without a new ack;
	// drainMax bounds it outright, so that nine repetitions of a run
	// that stalls still end well within the three minutes a run may
	// take. Whatever is still unacknowledged then counts as failed.
	drainIdle = 5 * time.Second
	drainMax  = 10 * time.Second
	// sampleEvery is the memory and goroutine sampling period.
	sampleEvery = 10 * time.Millisecond
)

// run is one pass over a workload: the inputs, what the sinks and the
// consumer saw per event, and the output checks.
type run struct {
	w       workload
	in      *inputs
	startUs atomic.Int64

	emitAt []atomic.Int64  // first emission at the ungated sink, unix ns
	ackAt  []atomic.Int64  // first consumer ack, unix ns
	acks   []atomic.Uint32 // consumer acks per input event
	acked  atomic.Int64    // events acked at least once

	wrong atomic.Int64 // outputs whose key or value is wrong
	stray atomic.Int64 // outputs no input explains

	// Q12 reference: per (bidder, window) cell, the number of bids
	// sent and the last count the consumer was given.
	cellOf    []int32
	cellTotal []uint64
	cellLast  []atomic.Uint64

	kills []*killRecord
	spans *spanLog // nil unless traced
}

func newRun(w workload, in *inputs, traced bool) *run {
	n := len(in.events)
	r := &run{
		w:      w,
		in:     in,
		emitAt: make([]atomic.Int64, n),
		ackAt:  make([]atomic.Int64, n),
		acks:   make([]atomic.Uint32, n),
	}
	if w.query == 12 {
		r.cellOf = make([]int32, n)
		r.cellTotal = make([]uint64, 0, in.bids)
	}
	if traced {
		r.spans = newSpanLog(n)
	}
	return r
}

// dueNs is event i's due time.
func (r *run) dueNs(i int) int64 {
	return (r.startUs.Load() + int64(i)*r.in.interval) * 1000
}

// index maps an output's event time, which is its input's unique due
// time, back to the input.
func (r *run) index(eventTime int64) (int, bool) {
	off := eventTime - r.startUs.Load()
	if off < 0 || off%r.in.interval != 0 {
		return 0, false
	}
	i := off / r.in.interval
	if i >= int64(len(r.in.events)) {
		return 0, false
	}
	return int(i), true
}

// begin fixes the run's start: stamps the inputs' due times and builds
// the Q12 reference counts, whose windows depend on absolute time.
func (r *run) begin(start time.Time) {
	r.startUs.Store(start.UnixMicro())
	r.in.stamp(start.UnixMicro())
	if r.w.query != 12 {
		return
	}
	size := nexmark.Q12Window.Size.Microseconds()
	cells := make(map[[2]uint64]int32)
	r.cellTotal = r.cellTotal[:0]
	for i := range r.in.events {
		e := &r.in.events[i]
		if e.kind != nexmark.KindBid {
			r.cellOf[i] = -1
			continue
		}
		due := r.dueNs(i) / 1000
		k := [2]uint64{e.bidder, uint64(due - due%size)}
		c, ok := cells[k]
		if !ok {
			c = int32(len(r.cellTotal))
			cells[k] = c
			r.cellTotal = append(r.cellTotal, 0)
		}
		r.cellTotal[c]++
		r.cellOf[i] = c
	}
	r.cellLast = make([]atomic.Uint64, len(r.cellTotal))
}

// onEmit is the ungated sink's callback: the record reached the output
// stream (the paper's §5.3 latency point).
func (r *run) onEmit(rec impeller.Record, _ impeller.TaskID, now time.Time) {
	if i, ok := r.index(rec.EventTime); ok {
		r.emitAt[i].CompareAndSwap(0, now.UnixNano())
	}
}

// consumer is the in-process external system behind the delivery sink.
// It acknowledges every record and checks it against the input.
type consumer struct{ r *run }

func (c *consumer) Deliver(_ context.Context, d *impeller.Delivery) error {
	now := time.Now().UnixNano()
	r := c.r
	i, ok := r.index(d.Record.EventTime)
	if !ok {
		r.stray.Add(1)
		return nil
	}
	if r.acks[i].Add(1) == 1 {
		r.ackAt[i].Store(now)
		r.acked.Add(1)
	}
	if !r.checkOutput(i, &d.Record) {
		r.wrong.Add(1)
	}
	for _, k := range r.kills {
		k.noteAck(d.Producer, r.dueNs(i), now)
	}
	if r.spans != nil {
		r.spans.deliverCall(i, now, time.Now().UnixNano())
	}
	return nil
}

// checkOutput compares one delivered record with the reference for its
// input event.
func (r *run) checkOutput(i int, rec *impeller.Record) bool {
	e := &r.in.events[i]
	if e.kind != nexmark.KindBid {
		return false // both queries drop persons and auctions
	}
	if r.w.query == 1 {
		// Q1: same key, same bid, price converted USD → EUR.
		v, in := rec.Value, e.payload
		return bytes.Equal(rec.Key, e.key) && len(v) == len(in) &&
			bytes.Equal(v[:17], in[:17]) &&
			binary.LittleEndian.Uint64(v[17:25]) == e.price*908/1000 &&
			bytes.Equal(v[25:], in[25:])
	}
	// Q12: keyed by (window, bidder); the running count never exceeds
	// the bids sent to that cell.
	start, end, kb, err := impeller.SplitWindowKey(rec.Key)
	size := nexmark.Q12Window.Size.Microseconds()
	due := r.dueNs(i) / 1000
	if err != nil || len(kb) != 8 || start != due-due%size || end != start+size ||
		binary.LittleEndian.Uint64(kb) != e.bidder {
		return false
	}
	c := r.cellOf[i]
	n := nexmark.CountValue(rec.Value)
	if n == 0 || n > r.cellTotal[c] {
		return false
	}
	r.cellLast[c].Store(n)
	return true
}

// failures counts, after the drain, every input whose output is
// missing, duplicated or wrong, plus send errors and stray outputs.
type failures struct {
	send, missing, duplicated, wrong, stray, cells int64
}

func (f *failures) add(o failures) {
	f.send += o.send
	f.missing += o.missing
	f.duplicated += o.duplicated
	f.wrong += o.wrong
	f.stray += o.stray
	f.cells += o.cells
}

func (f failures) total() int64 {
	return f.send + f.missing + f.duplicated + f.wrong + f.stray + f.cells
}

func (r *run) failures(sendFailures int64) failures {
	f := failures{send: sendFailures, wrong: r.wrong.Load(), stray: r.stray.Load()}
	for i := range r.in.events {
		if r.in.events[i].kind != nexmark.KindBid {
			continue
		}
		switch n := r.acks[i].Load(); {
		case n == 0:
			f.missing++
		case n > 1:
			f.duplicated++
		}
	}
	for c := range r.cellTotal {
		if r.cellLast[c].Load() != r.cellTotal[c] {
			f.cells++
		}
	}
	return f
}

// killRecord is one injected task failure and what followed it.
type killRecord struct {
	task    core.TaskID
	metrics *core.TaskMetrics
	atNs    atomic.Int64 // when Kill was called
	endNs   atomic.Int64 // when Kill returned
	// firstAckNs is the first consumer ack of a record the restarted
	// instance produced: the killed task's output for an input due
	// after the kill (the dead instance never saw such inputs).
	firstAckNs atomic.Int64
	replayNs   atomic.Int64 // the restarted instance's recovery time
}

func (k *killRecord) noteAck(producer core.TaskID, dueNs, now int64) {
	at := k.atNs.Load()
	if at == 0 || producer != k.task || dueNs < at || k.firstAckNs.Load() != 0 {
		return
	}
	if k.firstAckNs.CompareAndSwap(0, now) {
		k.replayNs.Store(k.metrics.RecoveryNanos.Load())
	}
}

// deployment is a running cluster with the query and both sinks.
type deployment struct {
	cluster  *impeller.Cluster
	app      *impeller.App
	delivery *core.DeliverySink
	runErr   chan error
}

// deploy starts a cluster, the query, the ungated sink and the delivery
// sink, and waits until every task has finished its start-up recovery,
// so the app is ready for input. Its duration is the set-up time.
func deploy(w workload, seed uint64, r *run) (*deployment, time.Duration, error) {
	t0 := time.Now()
	cfg := impeller.ClusterConfig{
		Protocol:           w.protocol,
		DefaultParallelism: parallelism,
		IngressWriters:     r.in.senders,
		SimulateLatency:    true,
		Seed:               seed,
	}
	if w.durable {
		cfg.WAL = wal.NewDevice()
	}
	cluster := impeller.NewCluster(cfg)
	topo, err := nexmark.BuildOpts(w.query, nexmark.Options{PerUpdateWindows: true})
	if err != nil {
		cluster.Close()
		return nil, 0, err
	}
	app, err := cluster.Run(topo)
	if err != nil {
		cluster.Close()
		return nil, 0, err
	}
	out := nexmark.OutputStream(w.query)
	app.Sink(out, false, r.onEmit)
	ds, err := app.NewDeliverySink(out, &consumer{r}, impeller.DeliveryOptions{})
	if err != nil {
		app.Stop()
		cluster.Close()
		return nil, 0, err
	}
	if r.spans != nil {
		ds.Sink().OnRecord = func(rec impeller.Record, _ impeller.TaskID, now time.Time) {
			if i, ok := r.index(rec.EventTime); ok {
				r.spans.handoff(i, now.UnixNano())
			}
		}
	}
	d := &deployment{cluster: cluster, app: app, delivery: ds, runErr: make(chan error, 1)}
	go func() { d.runErr <- ds.Run(context.Background()) }()
	m := app.Manager()
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range m.TaskIDs() {
		for m.TaskMetrics(id).RecoveryNanos.Load() == 0 {
			if time.Now().After(deadline) {
				d.stop()
				return nil, 0, fmt.Errorf("task %s did not finish start-up recovery", id)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return d, time.Since(t0), nil
}

// stop drains the delivery sink, stops the query and closes the
// cluster; every goroutine they started has returned when it does.
func (d *deployment) stop() error {
	d.delivery.Stop()
	err := <-d.runErr
	d.app.Stop()
	d.cluster.Close()
	return err
}

// pass is one repetition's raw results.
type pass struct {
	setups    []float64 // seconds
	start     time.Time
	winStart  time.Time
	winEnd    time.Time
	sendLog   *sendLog
	delta     counters // counter deltas over the measured window
	kvBytes   float64  // checkpoint store size at the window's end
	memPeakB  float64  // peak live heap above the pre-set-up baseline
	liveEndB  float64  // live heap after a collection at the window's end
	gorPeak   float64
	fail      failures
	drainedIn time.Duration
}

// measure runs repetition rep: set up (setups times, keeping the last
// deployment), send the open-loop input, snapshot the counters at the
// edges of the measured window, drain, and check every output.
func measure(w workload, rep int, seed uint64, window time.Duration, in *inputs, r *run, setups int) (*pass, error) {
	p := &pass{sendLog: &sendLog{lateUs: make([]int32, len(in.events))}}
	if r.spans != nil {
		p.sendLog.callNs = make([]int32, len(in.events))
	}
	runtime.GC()
	baseHeap := liveHeapBytes()

	var d *deployment
	for k := 0; k < setups; k++ {
		dep, dur, err := deploy(w, seed, r)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, dur.Seconds())
		if k < setups-1 {
			if err := dep.stop(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		} else {
			d = dep
		}
	}
	m := d.app.Manager()
	for k := 0; k < w.kills; k++ {
		id := core.TaskID(fmt.Sprintf("%s/%d", nexmark.RescaleStage(w.query), (rep+k)%parallelism))
		tm := m.TaskMetrics(id)
		if tm == nil {
			d.stop()
			return nil, fmt.Errorf("no task %s to kill", id)
		}
		r.kills = append(r.kills, &killRecord{task: id, metrics: tm})
	}

	p.start = time.Now().Add(50 * time.Millisecond).Truncate(time.Microsecond)
	r.begin(p.start)
	p.winStart = p.start.Add(warmup)
	p.winEnd = p.winStart.Add(window)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sampled := make(chan struct{})
	sampleCtx, stopSampling := context.WithDeadline(ctx, p.winEnd)
	defer stopSampling()
	go func() {
		defer close(sampled)
		p.memPeakB, p.gorPeak = sampleRuntime(sampleCtx, sampleEvery)
	}()
	edges := make(chan struct{})
	go func() {
		defer close(edges)
		time.Sleep(time.Until(p.winStart))
		before := snapshot(d)
		time.Sleep(time.Until(p.winEnd))
		p.delta = counters{}
		addDelta(p.delta, before, snapshot(d))
		p.kvBytes = float64(d.cluster.Checkpoints().DataSize())
		// The log only grows, so the live heap peaks at the window's
		// end; a collection there measures it exactly, where the
		// sampled figure lags by up to one collection cycle.
		runtime.GC()
		p.liveEndB = liveHeapBytes()
	}()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for k, kr := range r.kills {
			at := p.winStart.Add(window * time.Duration(2*k+1) / time.Duration(2*len(r.kills)))
			time.Sleep(time.Until(at))
			kr.atNs.Store(time.Now().UnixNano())
			_ = m.Kill(kr.task) // the task exists: TaskMetrics found it above
			kr.endNs.Store(time.Now().UnixNano())
		}
	}()
	observed := make(chan struct{})
	if r.spans != nil {
		go func() {
			defer close(observed)
			r.spans.observe(ctx, d.cluster.Log(), parallelism, r)
		}()
	} else {
		close(observed)
	}

	in.send(d.app, p.start, p.sendLog, r.spans)
	<-edges
	<-killed

	// Drain: wait for every bid's output to be acknowledged, ending
	// early only when acks stop arriving.
	drainStart := time.Now()
	last, lastAt := r.acked.Load(), drainStart
	for r.acked.Load() < int64(in.bids) {
		time.Sleep(5 * time.Millisecond)
		now := time.Now()
		if n := r.acked.Load(); n != last {
			last, lastAt = n, now
		}
		if now.Sub(lastAt) > drainIdle || now.Sub(drainStart) > drainMax {
			break
		}
	}
	p.drainedIn = time.Since(drainStart)
	stopErr := d.stop()
	cancel()
	<-sampled
	<-observed
	if stopErr != nil {
		return nil, fmt.Errorf("delivery sink: %w", stopErr)
	}
	p.memPeakB = max(p.memPeakB, p.liveEndB) - baseHeap
	p.fail = r.failures(p.sendLog.failures.Load())
	return p, nil
}

// windowEvents lists the input events due inside the measured window.
func (p *pass) windowEvents(r *run) (lo, hi int) {
	startNs := p.start.UnixNano()
	iv := r.in.interval * 1000
	lo = int((p.winStart.UnixNano() - startNs + iv - 1) / iv)
	hi = int((p.winEnd.UnixNano() - startNs + iv - 1) / iv)
	if hi > len(r.in.events) {
		hi = len(r.in.events)
	}
	return lo, hi
}

// latencies lists, for the window's bids, emission and delivery latency
// from each event's due time, in milliseconds.
func (p *pass) latencies(r *run) (emit, deliver []float64) {
	lo, hi := p.windowEvents(r)
	for i := lo; i < hi; i++ {
		if r.in.events[i].kind != nexmark.KindBid {
			continue
		}
		due := r.dueNs(i)
		if t := r.emitAt[i].Load(); t != 0 {
			emit = append(emit, float64(t-due)/1e6)
		}
		if t := r.ackAt[i].Load(); t != 0 {
			deliver = append(deliver, float64(t-due)/1e6)
		}
	}
	return emit, deliver
}

// acksInWindow counts first acks that landed inside the measured window.
func (p *pass) acksInWindow(r *run) int {
	lo, hi := p.winStart.UnixNano(), p.winEnd.UnixNano()
	n := 0
	for i := range r.ackAt {
		if t := r.ackAt[i].Load(); t >= lo && t < hi {
			n++
		}
	}
	return n
}

// sender lists each window event's send lateness (ms) and counts the
// window's events and those sent by the window's end.
func (p *pass) sender(r *run) (late []float64, due, sent int) {
	lo, hi := p.windowEvents(r)
	endNs := p.winEnd.UnixNano()
	for i := lo; i < hi; i++ {
		l := int64(p.sendLog.lateUs[i]) * 1000
		late = append(late, float64(l)/1e6)
		if r.dueNs(i)+l <= endNs {
			sent++
		}
	}
	return late, hi - lo, sent
}

// quantiles returns nearest-rank percentiles of xs (sorted in place).
func quantiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for j, p := range ps {
		k := int(math.Ceil(float64(len(xs))*p/100)) - 1
		out[j] = xs[min(max(k, 0), len(xs)-1)]
	}
	return out
}

// tailPercentile is the highest percentile of n samples that has at
// least ten samples beyond it.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return 100 * (1 - 10/float64(n))
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func stageOf(id core.TaskID) string {
	parts := strings.Split(string(id), "/")
	if len(parts) < 3 {
		return ""
	}
	return parts[len(parts)-2]
}
