package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// TestMarkerCommitCascades pins the progress-marker commit schedule
// (DESIGN.md §2.5) on both engines with a frozen manual clock. Stage 1
// of the word count is restarted half a commit interval after stage 0,
// so its own commit tick falls after stage 0's first one. The clock is
// then advanced exactly past stage 0's tick and frozen: stage 1's timer
// never fires, so the gated sink sees stage 1's output only if stage 1
// commits as soon as stage 0's marker releases its input. Before that,
// several ingress flushes reach the source-fed stage with the clock
// frozen; source input is committed on arrival and must not trigger
// commits of its own.
func TestMarkerCommitCascades(t *testing.T) {
	for _, engine := range []EngineMode{EngineGoroutine, EngineTasklet} {
		t.Run(engine.String(), func(t *testing.T) { testMarkerCommitCascades(t, engine) })
	}
}

func testMarkerCommitCascades(t *testing.T, engine EngineMode) {
	const interval = 100 * time.Millisecond
	const flushes = 3
	clock := sim.NewManualClock(time.Unix(0, 0))
	mgr, err := NewManager(&Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoProgressMarker,
		CommitInterval: interval,
		Clock:          clock,
		Engine:         engine,
		EngineLoops:    2,
	}, wordCountQuery(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	env := mgr.Env()
	ctx, cancel := context.WithCancel(context.Background())
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		mgr.Stop()
		wg.Wait()
		env.Log.Close()
	})

	var mu sync.Mutex
	counts := make(map[string]uint64)
	sink := NewGatedSink("counts", 1, env)
	sink.OnRecord = func(r Record, _ TaskID, _ time.Time) {
		mu.Lock()
		counts[string(r.Key)] = binary.LittleEndian.Uint64(r.Value)
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = sink.Run(ctx)
	}()

	split := []TaskID{"wc/split/0", "wc/split/1"}
	count := []TaskID{"wc/count/0", "wc/count/1"}
	sum := func(ids []TaskID, get func(*TaskMetrics) uint64) uint64 {
		var n uint64
		for _, id := range ids {
			n += get(mgr.TaskMetrics(id))
		}
		return n
	}
	processed := func(m *TaskMetrics) uint64 { return m.Processed.Load() }
	markers := func(m *TaskMetrics) uint64 { return m.Markers.Load() }
	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				mu.Lock()
				got := fmt.Sprint(counts)
				mu.Unlock()
				t.Fatalf("%s never happened (stage 0 markers %d, stage 1 markers %d, sink counts %s)",
					desc, sum(split, markers), sum(count, markers), got)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// A task reads the clock for its first deadlines before its first
	// heartbeat, so the clock may only move once every instance has
	// heartbeated.
	running := func(ids []TaskID) func() bool {
		return func() bool {
			mgr.mu.Lock()
			defer mgr.mu.Unlock()
			for _, id := range ids {
				if mgr.handles[id].task.progress.Load() == 0 {
					return false
				}
			}
			return true
		}
	}
	waitFor("tasks started", running(append(split, count...)))

	// Stage 1's first tick moves to 1.5 intervals after start.
	clock.Advance(interval / 2)
	for _, id := range count {
		if err := mgr.RestartNow(id); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("stage 1 restarted", running(count))

	// Source input with the clock frozen: each flush is processed in its
	// own loop iteration, and none may commit.
	ingress := NewIngress("ingress/0", "lines", 2, env, nil)
	var lines []string
	for i := 0; i < flushes; i++ {
		for j, line := range testLines {
			ingress.Send([]byte(fmt.Sprint(j)), []byte(line), 0)
			lines = append(lines, line)
		}
		if err := ingress.Flush(); err != nil {
			t.Fatal(err)
		}
		n := uint64(len(lines))
		waitFor(fmt.Sprintf("stage 0 processing flush %d", i+1), func() bool { return sum(split, processed) == n })
	}
	if n := sum(split, markers); n != 0 {
		t.Fatalf("source-fed stage wrote %d markers before its commit tick", n)
	}

	// Past stage 0's tick, short of stage 1's, then frozen for good.
	clock.Advance(interval / 2)
	want := expectedCounts(lines)
	waitFor("stage 1 output delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(counts) != len(want) {
			return false
		}
		for w, n := range want {
			if counts[w] != n {
				return false
			}
		}
		return true
	})

	// One tick, one marker per source-fed task; each stage-1 commit was
	// released by one of stage 0's two markers. A task counts its marker
	// only after the append returns, which may be after the sink saw it.
	waitFor("stage 0 markers counted", func() bool {
		for _, id := range split {
			if mgr.TaskMetrics(id).Markers.Load() == 0 {
				return false
			}
		}
		return true
	})
	for _, id := range split {
		if n := mgr.TaskMetrics(id).Markers.Load(); n != 1 {
			t.Errorf("%s wrote %d markers, want exactly its one commit tick", id, n)
		}
	}
	for _, id := range count {
		if n := mgr.TaskMetrics(id).Markers.Load(); n > uint64(len(split)) {
			t.Errorf("%s wrote %d markers, more than its %d upstream markers", id, n, len(split))
		}
	}
}
