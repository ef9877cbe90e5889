// Command perfbench is the Impeller repository benchmark: open-loop
// NEXMark workloads against the public impeller API, with end-to-end
// latency, CPU, memory and set-up metrics (--trace 0), or per-layer
// counters, recovery and hop spans (--trace 1). Every run checks every
// output against a reference computed from the inputs.
//
//	go run . --workload q1-durable --seed 1 --seconds 20 --trace 0
//
// A run is split into repetitions, each on a fresh cluster with its own
// warm-up; latencies are pooled across them. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	// reps splits the measured seconds into this many repetitions. Each
	// starts a fresh cluster, so one run samples several independent
	// commit-timer phase alignments and garbage-collector schedules,
	// and memory stays bounded by one repetition's log.
	reps = 8
	// setupsPerRep is how many times each repetition sets the cluster
	// up (all but the last are torn down at once); setup_s is the median
	// over the run.
	setupsPerRep = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input and simulation seed")
	seconds := flag.Int("seconds", 20, "measured seconds, split over the repetitions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and hop spans")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		return 2
	}
	res, err := execute(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ",")
}

// totals pools a run's repetitions. Untraced repetitions give the
// end-to-end figures and the counter deltas; traced ones (every other
// repetition of a --trace 1 run) give the hop spans and call timings.
type totals struct {
	emit, deliver []float64 // ms from due time
	tracedDeliver []float64
	acks          int
	windowS       float64
	offered       float64
	delta         counters
	kvBytes       []float64
	memPeaks      []float64
	goroutines    float64
	setups        []float64
	recovery      []float64 // kill → first ack from the restarted instance, ms
	replay        []float64 // the restarted instance's recovery time, ms
	kills         int
	late          []float64
	due, sent     int
	fail          failures
	attempted     int64

	sendCalls []float64 // µs
	hops      [4][]float64
	sampled   int
	broken    int
	spans     []span
}

func (t *totals) add(w workload, rep int, p *pass, r *run) {
	t.fail.add(p.fail)
	t.attempted += int64(len(r.in.events))
	t.setups = append(t.setups, p.setups...)
	emit, deliver := p.latencies(r)
	late, due, sent := p.sender(r)
	p99 := func(xs []float64) float64 { return quantiles(xs, 99)[0] }
	fmt.Printf("  rep %d: p99 emit %.1f ms, deliver %.1f ms, sender late %.1f ms; live heap %.1f MiB; drained in %v, failed %d\n",
		rep, p99(emit), p99(deliver), p99(late), p.memPeakB/(1<<20), p.drainedIn.Round(time.Millisecond), p.fail.total())
	if r.spans != nil {
		t.tracedDeliver = append(t.tracedDeliver, deliver...)
		lo, hi := p.windowEvents(r)
		for i := lo; i < hi; i++ {
			t.sendCalls = append(t.sendCalls, float64(p.sendLog.callNs[i])/1e3)
		}
		sampled, broken := r.spans.sampled(p, r)
		for _, h := range sampled {
			for k := range t.hops {
				t.hops[k] = append(t.hops[k], float64(h.t[k+1]-h.t[k])/1e6)
			}
		}
		t.sampled += len(sampled)
		t.broken += broken
		t.spans = append(t.spans, r.spans.spanList(rep, sampled, r)...)
		return
	}
	t.emit = append(t.emit, emit...)
	t.deliver = append(t.deliver, deliver...)
	t.late = append(t.late, late...)
	t.due += due
	t.sent += sent
	t.acks += p.acksInWindow(r)
	win := p.winEnd.Sub(p.winStart).Seconds()
	t.windowS += win
	t.offered += float64(w.rate) * win
	addDelta(t.delta, nil, p.delta)
	t.kvBytes = append(t.kvBytes, p.kvBytes)
	t.memPeaks = append(t.memPeaks, p.memPeakB)
	t.goroutines = max(t.goroutines, p.gorPeak)
	for _, k := range r.kills {
		t.kills++
		if a := k.firstAckNs.Load(); a != 0 {
			t.recovery = append(t.recovery, float64(a-k.atNs.Load())/1e6)
			t.replay = append(t.replay, float64(k.replayNs.Load())/1e6)
		}
	}
}

func execute(w workload, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	window := seconds / reps
	n := int(int64(w.rate) * int64(warmup+window) / int64(time.Second))
	in, err := generate(seed, w.rate, n)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d repetitions of %d events at %d ev/s (%d bids), %d senders, warm-up %v, window %v\n",
		w.name, seed, reps, n, w.rate, in.bids, in.senders, warmup, window)
	// An unmeasured repetition first: the process's first cluster pays
	// for growing the heap from the operating system and for cold
	// caches, which later repetitions (and long-running deployments)
	// do not. Its outputs are still checked.
	warm, err := measure(w, 0, seed*(reps+1), window, in, newRun(w, in, false), 1)
	if err != nil {
		return nil, fmt.Errorf("warm-up repetition: %w", err)
	}
	t := &totals{delta: counters{}, fail: warm.fail, attempted: int64(len(in.events))}
	for k := 0; k < reps; k++ {
		r := newRun(w, in, traced && k%2 == 1)
		p, err := measure(w, k, seed*(reps+1)+uint64(k)+1, window, in, r, setupsPerRep)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", k, err)
		}
		t.add(w, k, p, r)
	}

	res := &result{Correct: true, Attempted: t.attempted, Failed: t.fail.total(), Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("  %-36s %14.4f %s\n", name, v, unit)
	}
	if !t.check() {
		res.Correct = false
	}
	if !traced {
		t.endToEnd(put)
		return res, nil
	}
	t.perLayer(put)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(path, t.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %s (%d)\n", path, len(t.spans))
	return res, nil
}

// A run whose sender fell this far behind its schedule did not offer
// the workload's rate, so its figures are not the workload's.
const (
	maxLateMs   = 50
	minSentFrac = 0.99
)

// check reports the output checks and the run's validity.
func (t *totals) check() bool {
	f := t.fail
	ok := f.total() == 0
	fmt.Printf("  %-36s %14.6f ratio (send %d, missing %d, duplicated %d, wrong %d, stray %d, cells %d; %d inputs)\n",
		"failed_frac", float64(f.total())/float64(t.attempted), f.send, f.missing, f.duplicated, f.wrong, f.stray, f.cells, t.attempted)
	late := quantiles(t.late, 99)[0]
	sent := float64(t.sent) / float64(t.due)
	fmt.Printf("  sender: late p99 %.3f ms, %.5f of the windows' events sent by their end\n", late, sent)
	if late > maxLateMs || sent < minSentFrac {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: the sender could not keep the schedule (late p99 %.1f ms, sent %.4f)\n", late, sent)
		ok = false
	}
	if len(t.recovery) != t.kills {
		fmt.Fprintf(os.Stderr, "perfbench: only %d of %d kills were followed by output from the restarted task\n", len(t.recovery), t.kills)
		ok = false
	}
	return ok
}

// latencyMetrics puts a pooled latency sample's p50 and p95 and prints
// its size, its p99 and its highest percentile with ten samples beyond
// it. The p95, not the p99, is the bounded tail: on a shared 2-vCPU
// virtual machine the p99 follows the hypervisor's CPU steal (over ten
// seeds its interquartile range reached 0.30 of its median while steal
// swung between 1% and 10%), more than a regression bound can absorb,
// where the p95's reached 0.18. The p99 is a per-layer metric.
func latencyMetrics(prefix string, xs []float64, put func(string, float64, string)) {
	tail := tailPercentile(len(xs))
	q := quantiles(xs, 50, 95, 99, tail)
	fmt.Printf("  %s latency: n=%d, p99 %.3f ms (%d beyond), p%.6g %.3f ms\n", prefix, len(xs), q[2], len(xs)/100, tail, q[3])
	put(prefix+"_p50_ms", q[0], "ms")
	put(prefix+"_p95_ms", q[1], "ms")
}

func (t *totals) endToEnd(put func(string, float64, string)) {
	latencyMetrics("emit", t.emit, put)
	latencyMetrics("deliver", t.deliver, put)
	put("goodput_eps", float64(t.acks)/t.windowS, "records/s")
	put("cpu_ms_per_kev", t.delta["cpu.process_ns"]/1e6/(t.offered/1000), "ms")
	put("mem_peak_mb", mean(t.memPeaks)/(1<<20), "MiB")
	put("setup_s", median(t.setups), "s")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// perLayer puts the per-layer metrics: the untraced repetitions'
// end-to-end p99s and counter deltas over their windows, and timings
// from the traced repetitions.
func (t *totals) perLayer(put func(string, float64, string)) {
	d := t.delta
	kev := t.offered / 1000
	put("emit_p99_ms", quantiles(t.emit, 99)[0], "ms")
	put("deliver_p99_ms", quantiles(t.deliver, 99)[0], "ms")
	q := quantiles(t.sendCalls, 50, 99)
	put("ingress.send_p50_us", q[0], "us")
	put("ingress.send_p99_us", q[1], "us")
	for k, name := range hopNames {
		q := quantiles(t.hops[k], 50, 99)
		put(name+"_p50_ms", q[0], "ms")
		if name != "hop.deliver" {
			put(name+"_p99_ms", q[1], "ms")
		}
	}
	put("trace.sampled_events", float64(t.sampled), "count")
	put("trace.broken_events", float64(t.broken), "count")
	untraced := quantiles(t.deliver, 50)[0]
	put("trace.deliver_p50_overhead_ms", quantiles(t.tracedDeliver, 50)[0]-untraced, "ms")

	put("sharedlog.appends_per_kev", d["log.appends"]/kev, "1/kev")
	put("sharedlog.records_per_batch_append", ratio(d["log.batched_records"], d["log.batch_appends"]), "records")
	put("sharedlog.reads_per_kev", d["log.cursor_reads"]/kev, "1/kev")
	put("sharedlog.records_per_read", ratio(d["log.cursor_records"], d["log.cursor_reads"]), "records")
	put("sharedlog.useful_wakeup_ratio", ratio(d["log.useful_wakeups"], d["log.wakeups"]), "ratio")
	put("sharedlog.cond_failed", d["log.cond_failed"], "count")
	put("wal.bytes_per_event", d["wal.bytes"]/t.offered, "B")
	put("wal.flushes_per_s", d["wal.flushes"]/t.windowS, "1/s")
	for _, s := range []string{"s0", "s1"} {
		put("task."+s+".processed", d["task."+s+".processed"], "count")
		put("task."+s+".emitted", d["task."+s+".emitted"], "count")
	}
	put("task.batch_stalls", d["task.batch_stalls"], "count")
	put("task.commit_stalls", d["task.commit_stalls"], "count")
	put("state.changes_per_kev", d["state.changes"]/kev, "1/kev")
	put("commit.markers_per_s", d["commit.markers"]/t.windowS, "1/s")
	put("commit.marker_bytes", ratio(d["commit.marker_bytes"], d["commit.markers"]), "B")
	put("kvstore.wal_ops", d["kvstore.wal_ops"], "count")
	put("kvstore.data_bytes", median(t.kvBytes), "B")
	put("egress.attempts_per_ack", ratio(d["egress.attempts"], d["egress.delivered"]), "ratio")
	put("egress.frontier_persists", d["egress.frontier_persists"], "count")
	put("recovery_ms", median(t.recovery), "ms")
	put("recovery.replay_ms", median(t.replay), "ms")
	put("recovery.replayed_changes", d["recovery.replayed_changes"], "count")
	put("recovery.replay_reads", d["recovery.replay_reads"], "count")
	fmt.Printf("  kills: %d, followed by output from the restarted task: %d\n", t.kills, len(t.recovery))
	put("manager.restarts", d["manager.restarts"], "count")
	put("go.gc_cpu_frac", ratio(d["cpu.gc_s"], d["cpu.total_s"]), "ratio")
	put("go.goroutines_peak", t.goroutines, "count")
	put("gen.late_p99_ms", quantiles(t.late, 99)[0], "ms")
	put("gen.sent_frac", float64(t.sent)/float64(t.due), "ratio")
}
