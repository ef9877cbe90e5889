package main

import (
	"context"
	"runtime/metrics"
	"syscall"
	"time"
)

// counters is a snapshot of every counter the layers export, by name,
// taken at the edges of the measured window. Per-layer metrics are
// built from the deltas, summed over a run's repetitions.
type counters map[string]float64

func snapshot(d *deployment) counters {
	c := counters{}
	s := d.cluster.LogStats()
	c["log.appends"] = float64(s.Appends)
	c["log.batch_appends"] = float64(s.BatchAppends)
	c["log.batched_records"] = s.MeanAppendBatch * float64(s.BatchAppends)
	c["log.cursor_reads"] = float64(s.CursorBatchReads)
	c["log.cursor_records"] = float64(s.CursorRecords)
	c["log.wakeups"] = float64(s.ReaderWakeups)
	c["log.useful_wakeups"] = float64(s.UsefulWakeups)
	c["log.cond_failed"] = float64(s.CondFailed)
	c["wal.bytes"] = float64(s.WALBytes)
	c["wal.flushes"] = float64(s.WALFlushes)

	m := d.app.Manager()
	for _, id := range m.TaskIDs() {
		tm := m.TaskMetrics(id)
		if tm == nil {
			continue
		}
		st := stageOf(id)
		c["task."+st+".processed"] += float64(tm.Processed.Load())
		c["task."+st+".emitted"] += float64(tm.Emitted.Load())
		c["task.batch_stalls"] += float64(tm.BatchStalls.Load())
		c["task.commit_stalls"] += float64(tm.CommitStalls.Load())
		c["state.changes"] += float64(tm.ChangeRecords.Load())
		c["commit.markers"] += float64(tm.Markers.Load())
		c["commit.marker_bytes"] += float64(tm.MarkerBytes.Load())
		c["recovery.replayed_changes"] += float64(tm.RecoveredChanges.Load())
		c["recovery.replay_reads"] += float64(tm.RecoveryCursor.BatchReads.Load())
		c["manager.restarts"] += float64(m.Restarts(id))
	}
	ck := d.cluster.Checkpoints()
	c["kvstore.wal_ops"] = float64(ck.WALOps())
	ds := d.delivery.Stats()
	c["egress.attempts"] = float64(ds.Attempts)
	c["egress.delivered"] = float64(ds.Delivered)
	c["egress.frontier_persists"] = float64(ds.FrontierPersists)
	c["cpu.process_ns"] = float64(processCPU())
	gc, total := runtimeCPU()
	c["cpu.gc_s"], c["cpu.total_s"] = gc, total
	return c
}

// addDelta adds after - before, key by key, into sum.
func addDelta(sum, before, after counters) {
	for k, v := range after {
		sum[k] += v - before[k]
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func floatOf(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func runtimeCPU() (gc, total float64) {
	s := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
	return floatOf(s[0]), floatOf(s[1])
}

func liveHeapBytes() float64 {
	return floatOf(readMetrics("/gc/heap/live:bytes")[0])
}

// sampleRuntime samples the live heap and the goroutine count every
// period until ctx ends, returning their peaks.
func sampleRuntime(ctx context.Context, period time.Duration) (heapPeak, goroutinePeak float64) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		s := readMetrics("/gc/heap/live:bytes", "/sched/goroutines:goroutines")
		if h := floatOf(s[0]); h > heapPeak {
			heapPeak = h
		}
		if g := floatOf(s[1]); g > goroutinePeak {
			goroutinePeak = g
		}
		select {
		case <-ctx.Done():
			return heapPeak, goroutinePeak
		case <-t.C:
		}
	}
}
