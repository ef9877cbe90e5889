package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

func TestBatcherPreservesSubmissionOrder(t *testing.T) {
	log := sharedlog.Open(sharedlog.Config{})
	defer log.Close()
	// Small batches and a narrow window so the 100 submissions cross
	// many sealed batches (and exercise the backpressure path).
	a := newBatcher(log, BatchConfig{MaxRecords: 8, Window: 2}, nil, context.Background(), nil, nil, nil)
	defer a.close()

	var mu sync.Mutex
	var lsns []LSN
	for i := 0; i < 100; i++ {
		payload := []byte{byte(i)}
		a.submit([]sharedlog.Tag{"t"}, payload, nil, func(lsn LSN, err error) {
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			mu.Lock()
			lsns = append(lsns, lsn)
			mu.Unlock()
		})
	}
	if err := a.drain(); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 100 {
		t.Fatalf("completed %d appends", len(lsns))
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("order violated at %d: %v", i, lsns[i-1:i+1])
		}
	}
	// Payload order must match submission order in the log.
	var cursor LSN
	for i := 0; i < 100; i++ {
		rec, err := log.ReadNext("t", cursor)
		if err != nil || rec == nil {
			t.Fatal(err)
		}
		if rec.Payload[0] != byte(i) {
			t.Fatalf("payload %d at position %d", rec.Payload[0], i)
		}
		cursor = rec.LSN + 1
	}
}

func TestBatcherReportsFirstError(t *testing.T) {
	log := sharedlog.Open(sharedlog.Config{})
	a := newBatcher(log, BatchConfig{}, nil, context.Background(), nil, nil, nil)
	defer a.close()
	log.Close() // force append failures
	a.submit([]sharedlog.Tag{"t"}, nil, nil, nil)
	if err := a.drain(); !errors.Is(err, sharedlog.ErrClosed) {
		t.Fatalf("drain err = %v, want ErrClosed", err)
	}
	if n := a.pending(); n != 0 {
		t.Fatalf("pending after drain = %d", n)
	}
}

func TestIngressPartitionsByKey(t *testing.T) {
	env := (&Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{})}).withDefaults()
	defer env.Log.Close()
	g := NewIngress("ingress/t", "in", 4, env, nil)
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	for i, k := range keys {
		g.Send(k, []byte{byte(i)}, int64(i))
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if g.Sent() != uint64(len(keys)) {
		t.Fatalf("Sent = %d", g.Sent())
	}
	// Every record must be in the substream its key hashes to.
	found := 0
	for sub := 0; sub < 4; sub++ {
		var cursor LSN
		for {
			rec, err := env.Log.ReadNext(DataTag("in", sub), cursor)
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil {
				break
			}
			cursor = rec.LSN + 1
			b, err := DecodeBatch(rec.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if b.Kind != KindSource {
				t.Fatalf("kind = %v", b.Kind)
			}
			for _, r := range b.Records {
				if Partition(r.Key, 4) != sub {
					t.Fatalf("key %q in wrong substream %d", r.Key, sub)
				}
				found++
			}
		}
	}
	if found != len(keys) {
		t.Fatalf("found %d records, want %d", found, len(keys))
	}
}

func TestIngressSeqMonotonicAcrossFlushes(t *testing.T) {
	env := (&Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{})}).withDefaults()
	defer env.Log.Close()
	g := NewIngress("ingress/t", "in", 1, env, nil)
	var want uint64
	for flush := 0; flush < 3; flush++ {
		for i := 0; i < 5; i++ {
			g.Send([]byte("k"), nil, 0)
		}
		if err := g.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var cursor LSN
	for {
		rec, err := env.Log.ReadNext(DataTag("in", 0), cursor)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		cursor = rec.LSN + 1
		b, _ := DecodeBatch(rec.Payload)
		for _, r := range b.Records {
			if r.Seq <= want {
				t.Fatalf("seq %d after %d", r.Seq, want)
			}
			want = r.Seq
		}
	}
	if want != 15 {
		t.Fatalf("last seq = %d, want 15", want)
	}
}

func TestUngatedSinkSeesUncommitted(t *testing.T) {
	// An ungated sink observes records at emission, before any marker;
	// a gated sink holds them until the marker commits.
	env := (&Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{}), Protocol: ProtoProgressMarker}).withDefaults()
	defer env.Log.Close()

	batch := &Batch{
		Kind: KindData, Producer: "up/0", Instance: 1,
		Records: []Record{{Seq: 1, Key: []byte("k"), Value: []byte("v")}},
	}
	lsn, err := env.Log.Append([]sharedlog.Tag{DataTag("out", 0)}, batch.Encode())
	if err != nil {
		t.Fatal(err)
	}

	runSink := func(s *Sink) (uint64, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { _ = s.Run(ctx) }()
		return 0, cancel
	}

	ungated := NewSink("out", 1, env)
	_, cancelU := runSink(ungated)
	defer cancelU()
	gated := NewGatedSink("out", 1, env)
	_, cancelG := runSink(gated)
	defer cancelG()

	waitFor := func(desc string, pred func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", desc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("ungated delivery", func() bool { return ungated.Counts().Received == 1 })
	if n := gated.Counts().Received; n != 0 {
		t.Fatal("gated sink delivered uncommitted record")
	}

	// Commit via a marker covering the batch.
	m := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN,
		OutFirst: map[sharedlog.Tag]sharedlog.LSN{DataTag("out", 0): lsn}}
	mb := &Batch{Kind: KindMarker, Producer: "up/0", Instance: 1, Control: m.Encode()}
	if _, err := env.Log.Append([]sharedlog.Tag{DataTag("out", 0)}, mb.Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor("gated delivery after marker", func() bool { return gated.Counts().Received == 1 })
}

func TestGatedSinkDiscardsUncommitted(t *testing.T) {
	env := (&Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{}), Protocol: ProtoProgressMarker}).withDefaults()
	defer env.Log.Close()

	// Instance 1 writes a record, dies; instance 2's marker commits
	// nothing — the record must be counted as dropped, not delivered.
	orphan := &Batch{Kind: KindData, Producer: "up/0", Instance: 1,
		Records: []Record{{Seq: 1, Key: []byte("k"), Value: []byte("dead")}}}
	if _, err := env.Log.Append([]sharedlog.Tag{DataTag("out", 0)}, orphan.Encode()); err != nil {
		t.Fatal(err)
	}
	m := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN}
	mb := &Batch{Kind: KindMarker, Producer: "up/0", Instance: 2, Control: m.Encode()}
	if _, err := env.Log.Append([]sharedlog.Tag{DataTag("out", 0)}, mb.Encode()); err != nil {
		t.Fatal(err)
	}

	gated := NewGatedSink("out", 1, env)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = gated.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		c := gated.Counts()
		if c.DroppedUncommitted == 1 && c.Received == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphan not discarded: delivered=%d dropped=%d", c.Received, c.DroppedUncommitted)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failingOnceProcessor errors on its first record, then works; the
// manager must restart the task and the record must still be processed
// exactly once.
type failingOnceProcessor struct {
	mu     *sync.Mutex
	failed *bool
}

func (p *failingOnceProcessor) Open(ProcContext) error { return nil }
func (p *failingOnceProcessor) Process(_ int, d Datum, emit Emit) error {
	p.mu.Lock()
	first := !*p.failed
	*p.failed = true
	p.mu.Unlock()
	if first {
		return errors.New("transient processor failure")
	}
	emit(0, d)
	return nil
}

func TestManagerRestartsOnProcessorError(t *testing.T) {
	env := &Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoProgressMarker,
		CommitInterval: 20 * time.Millisecond,
	}
	defer env.Log.Close()
	var mu sync.Mutex
	failed := false
	q := &Query{
		Name: "fo",
		Stages: []*Stage{{
			Name:        "fo/s",
			Parallelism: 1,
			Inputs:      []StreamID{"in"},
			Outputs:     []OutputSpec{{Stream: "out", Partitions: 1}},
			NewProcessor: func() Processor {
				return &failingOnceProcessor{mu: &mu, failed: &failed}
			},
		}},
	}
	mgr, err := NewManager(env, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	ing := NewIngress("ingress/0", "in", 1, mgr.Env(), nil)
	ing.Send([]byte("k"), []byte("v"), time.Now().UnixMicro())
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}

	sink := NewGatedSink("out", 1, mgr.Env())
	go func() { _ = sink.Run(ctx) }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		c := sink.Counts()
		if c.Received == 1 && c.Duplicates == 0 {
			if mgr.Restarts("fo/s/0") == 0 {
				t.Fatal("task was not restarted after processor error")
			}
			return
		}
		if c.Received > 1 {
			t.Fatalf("record delivered %d times", c.Received)
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never delivered (restarts=%d)", mgr.Restarts("fo/s/0"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosExactlyOnce runs word count under a seeded schedule of
// crashes and zombie partitions for each gating protocol, checking the
// final counts are exact every time.
func TestChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	protocols := []FTProtocol{ProtoProgressMarker, ProtoKafkaTxn, ProtoAlignedCheckpoint}
	for _, proto := range protocols {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			c := startWordCount(t, proto, 2, 2)
			c.mgr.SetTimeouts(150*time.Millisecond, 20*time.Millisecond)

			victims := []TaskID{"wc/count/0", "wc/count/1", "wc/split/0"}
			done := make(chan map[string]uint64)
			go func() { done <- sendLoad(c, 2000) }()

			for i := 0; i < 5; i++ {
				time.Sleep(60 * time.Millisecond)
				victim := victims[i%len(victims)]
				if proto == ProtoProgressMarker && i == 2 {
					_ = c.mgr.Zombify(victim)
				} else {
					_ = c.mgr.Kill(victim)
				}
			}
			want := <-done
			c.waitCounts(want, 60*time.Second)

			total := 0
			for _, id := range c.mgr.TaskIDs() {
				total += c.mgr.Restarts(id)
			}
			if total == 0 {
				t.Fatal("chaos schedule caused no restarts")
			}
			t.Logf("%s: survived %d restarts with exact counts", proto, total)
		})
	}
}

// TestZombifyExitedInstanceErrors pins the zombify/restart race:
// zombifying a task whose current instance has already exited must
// report an error (there is no running instance to turn into a
// zombie), so chaos accounting counts only zombies actually planted.
func TestZombifyExitedInstanceErrors(t *testing.T) {
	c := startWordCount(t, ProtoProgressMarker, 1, 1)

	// Park the monitor so the killed instance is not replaced while the
	// test probes the exited window; sleep past the old 25 ms tick so
	// the monitor loop has re-armed with the long interval.
	c.mgr.SetTimeouts(time.Hour, time.Hour)
	time.Sleep(100 * time.Millisecond)

	victim := TaskID("wc/count/0")
	if err := c.mgr.Zombify(victim); err != nil {
		t.Fatalf("zombify of a live instance failed: %v", err)
	}

	if err := c.mgr.Kill(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.mgr.Zombify(victim)
		if err != nil {
			if !strings.Contains(err.Error(), "already exited") {
				t.Fatalf("unexpected zombify error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("zombify kept succeeding after the instance was killed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A replacement instance is zombifiable again.
	if err := c.mgr.RestartNow(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.mgr.Zombify(victim); err != nil {
		t.Fatalf("zombify of the replacement failed: %v", err)
	}
}

func TestManagerKillUnknownTask(t *testing.T) {
	env := &Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{})}
	defer env.Log.Close()
	mgr, err := NewManager(env, wordCountQuery(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Kill("nope"); err == nil {
		t.Fatal("killing unknown task succeeded")
	}
	if err := mgr.Zombify("nope"); err == nil {
		t.Fatal("zombifying unknown task succeeded")
	}
	if err := mgr.RestartNow("nope"); err == nil {
		t.Fatal("restarting unknown task succeeded")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	env := &Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{})}
	defer env.Log.Close()
	mgr, err := NewManager(env, wordCountQuery(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	if err := mgr.Start(ctx); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestQueryMetricsAggregation(t *testing.T) {
	var q QueryMetrics
	m1, m2 := &TaskMetrics{}, &TaskMetrics{}
	m1.Processed.Store(10)
	m2.Processed.Store(5)
	m1.Markers.Store(2)
	q.Add(m1)
	q.Add(m2)
	if q.Processed != 15 || q.Markers != 2 {
		t.Fatalf("aggregate = %+v", q)
	}
}

func TestTaskIDsStableOrder(t *testing.T) {
	env := &Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{})}
	defer env.Log.Close()
	mgr, err := NewManager(env, wordCountQuery(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	ids := mgr.TaskIDs()
	want := []TaskID{"wc/split/0", "wc/split/1", "wc/count/0", "wc/count/1", "wc/count/2"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

// TestIngressFlushWaitsForInFlightFlush pins that Flush returns only
// once every record sent before it is in the log, even when another
// flush (Run's ticker) took those records first and is still
// appending. A power failure right after Flush must not lose them.
func TestIngressFlushWaitsForInFlightFlush(t *testing.T) {
	const latency = 200 * time.Millisecond
	env := (&Env{
		Log:         sharedlog.Open(sharedlog.Config{AppendLatency: sim.FixedLatency(latency)}),
		Checkpoints: kvstore.Open(kvstore.Config{}),
	}).withDefaults()
	defer env.Log.Close()
	g := NewIngress("ingress/t", "in", 1, env, nil)
	g.Send([]byte("k"), []byte("v"), 0)
	first := make(chan error, 1)
	go func() { first <- g.Flush() }()
	// Wait until the first flush has taken the buffer.
	for {
		g.mu.Lock()
		taken := len(g.bufs[0].records) == 0
		g.mu.Unlock()
		if taken {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := env.Log.CountTag(DataTag("in", 0)); n != 1 {
		t.Fatalf("Flush returned with %d of 1 sent batches in the log", n)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}
