package sharedlog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"impeller/internal/sim"
	"impeller/internal/testutil"
)

// TestCursorEquivalentToSingles is the cursor's semantic anchor: over
// random appends (random tag subsets), random trim points, random
// watched tag sets, and random batch/prefetch sizes, draining a cursor
// yields the byte-identical record sequence a ReadNextAny loop yields.
// The one deliberate divergence — a cursor whose position a trim passed
// invalidates instead of silently skipping the hole — is asserted too.
func TestCursorEquivalentToSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := []Tag{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 25; trial++ {
		l := Open(Config{})
		n := 50 + rng.Intn(400)
		for i := 0; i < n; i++ {
			var tags []Tag
			for _, tg := range pool {
				if rng.Intn(3) == 0 {
					tags = append(tags, tg)
				}
			}
			if len(tags) == 0 {
				tags = append(tags, pool[rng.Intn(len(pool))])
			}
			if _, err := l.Append(tags, []byte(fmt.Sprintf("p%d-%d", trial, i))); err != nil {
				t.Fatal(err)
			}
		}
		horizon := LSN(0)
		if rng.Intn(2) == 0 {
			horizon = LSN(rng.Intn(n))
			if err := l.Trim(horizon); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 8; q++ {
			k := 1 + rng.Intn(3)
			watch := make([]Tag, 0, k)
			for _, pi := range rng.Perm(len(pool))[:k] {
				watch = append(watch, pool[pi])
			}
			from := LSN(rng.Intn(n + 1))
			maxBatch := 1 + rng.Intn(7)
			prefetch := rng.Intn(32) - 1 // exercise disabled readahead too

			cur := l.OpenCursorOpts(watch, from, CursorOptions{Prefetch: prefetch})
			if from < horizon {
				if _, err := cur.NextBatch(maxBatch); !errors.Is(err, ErrCursorInvalidated) {
					t.Fatalf("trial %d: cursor below horizon: err = %v, want ErrCursorInvalidated", trial, err)
				}
				// Invalidation is sticky until Seek.
				if _, err := cur.NextBatch(maxBatch); !errors.Is(err, ErrCursorInvalidated) {
					t.Fatalf("trial %d: invalidation not sticky: %v", trial, err)
				}
				cur.Seek(horizon)
				from = horizon
			}

			var want []*Record
			pos := from
			for {
				rec, err := l.ReadNextAny(watch, pos)
				if err != nil {
					t.Fatal(err)
				}
				if rec == nil {
					break
				}
				want = append(want, rec)
				pos = rec.LSN + 1
			}

			var got []*Record
			for {
				recs, err := cur.NextBatch(maxBatch)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) == 0 {
					break
				}
				if len(recs) > maxBatch {
					t.Fatalf("NextBatch(%d) returned %d records", maxBatch, len(recs))
				}
				got = append(got, recs...)
			}

			if len(got) != len(want) {
				t.Fatalf("trial %d q %d: cursor yielded %d records, singles %d (watch=%v from=%d)",
					trial, q, len(got), len(want), watch, from)
			}
			for i := range want {
				if got[i].LSN != want[i].LSN {
					t.Fatalf("trial %d q %d rec %d: LSN %d != %d", trial, q, i, got[i].LSN, want[i].LSN)
				}
				if string(got[i].Payload) != string(want[i].Payload) {
					t.Fatalf("trial %d q %d rec %d: payload %q != %q", trial, q, i, got[i].Payload, want[i].Payload)
				}
			}
		}
		l.Close()
	}
}

// TestCursorInvalidatedMidStream asserts a trim that passes a live
// cursor's fetch position invalidates it on the next fetch, and that
// Seek to the horizon revives it.
func TestCursorInvalidatedMidStream(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cur := l.OpenCursorOpts([]Tag{"t"}, 0, CursorOptions{Prefetch: -1})
	recs, err := cur.NextBatch(5)
	if err != nil || len(recs) != 5 {
		t.Fatalf("NextBatch = (%d, %v), want 5 records", len(recs), err)
	}
	if err := l.Trim(10); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.NextBatch(5); !errors.Is(err, ErrCursorInvalidated) {
		t.Fatalf("NextBatch after trim past position = %v, want ErrCursorInvalidated", err)
	}
	cur.Seek(l.TrimHorizon())
	recs, err = cur.NextBatch(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || recs[0].LSN != 10 {
		t.Fatalf("after Seek(horizon): %d records from %v, want 10 from LSN 10", len(recs), recs)
	}
	stats := l.Stats()
	if stats.CursorInvalidations != 1 {
		t.Fatalf("CursorInvalidations = %d, want 1", stats.CursorInvalidations)
	}
}

// TestCursorBatchIsOneRoundTrip asserts the latency contract: a fetch
// charges the read latency once however many records it returns, so a
// cursor drain pays ~ceil(n/batch) charges while a singles loop pays n.
func TestCursorBatchIsOneRoundTrip(t *testing.T) {
	clock := &sleepRecorder{}
	const lat = time.Millisecond
	l := Open(Config{ReadLatency: sim.FixedLatency(lat), Clock: clock})
	defer l.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	clock.slept = 0
	cur := l.OpenCursorOpts([]Tag{"t"}, 0, CursorOptions{Prefetch: -1})
	total := 0
	for {
		recs, err := cur.NextBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		total += len(recs)
	}
	if total != n {
		t.Fatalf("drained %d records, want %d", total, n)
	}
	if want := 4 * lat; clock.slept != want {
		t.Fatalf("cursor drain slept %v, want %v (one charge per fetch)", clock.slept, want)
	}
	st := l.Stats()
	if st.CursorBatchReads != 4 || st.CursorRecords != uint64(n) {
		t.Fatalf("stats = %d fetches / %d records, want 4 / %d", st.CursorBatchReads, st.CursorRecords, n)
	}
	if st.MeanReadBatch != 16 {
		t.Fatalf("MeanReadBatch = %v, want 16", st.MeanReadBatch)
	}
}

// TestCursorPrefetch asserts readahead accounting: with Prefetch >=
// remaining records, the first NextBatch fetches everything and later
// batches are served from memory as prefetch hits without further
// round trips.
func TestCursorPrefetch(t *testing.T) {
	clock := &sleepRecorder{}
	l := Open(Config{ReadLatency: sim.FixedLatency(time.Millisecond), Clock: clock})
	defer l.Close()
	const n = 48
	for i := 0; i < n; i++ {
		if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	clock.slept = 0
	cur := l.OpenCursor([]Tag{"t"}, 0) // default prefetch 256 covers all
	for drained := 0; drained < n; {
		recs, err := cur.NextBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		drained += len(recs)
	}
	if clock.slept != time.Millisecond {
		t.Fatalf("drain slept %v, want 1ms (single prefetching fetch)", clock.slept)
	}
	st := l.Stats()
	if st.CursorBatchReads != 1 {
		t.Fatalf("CursorBatchReads = %d, want 1", st.CursorBatchReads)
	}
	if st.PrefetchHits != n-16 || st.PrefetchMisses != 16 {
		t.Fatalf("prefetch hits/misses = %d/%d, want %d/16", st.PrefetchHits, st.PrefetchMisses, n-16)
	}
	if cur.Buffered() != 0 {
		t.Fatalf("Buffered = %d after drain, want 0", cur.Buffered())
	}
}

// TestCursorBlocking asserts NextBatchBlocking parks on the per-tag
// waiters and wakes on a commit carrying a watched tag, and that ctx
// cancellation and log close unblock it.
func TestCursorBlocking(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	cur := l.OpenCursor([]Tag{"w"}, 0)

	type result struct {
		recs []*Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := cur.NextBatchBlocking(context.Background(), 8)
		done <- result{recs, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Append([]Tag{"other"}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		t.Fatalf("blocked cursor woke on unrelated tag: %v", r)
	case <-time.After(20 * time.Millisecond):
	}
	lsn, err := l.Append([]Tag{"w"}, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || len(r.recs) != 1 || r.recs[0].LSN != lsn {
			t.Fatalf("NextBatchBlocking = (%v, %v), want record at %d", r.recs, r.err, lsn)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cursor did not wake on watched tag")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		recs, err := cur.NextBatchBlocking(ctx, 8)
		done <- result{recs, err}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("after cancel: %v, want context.Canceled", r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled cursor did not unblock")
	}
}

// TestCursorUnavailableReplicas asserts the fault contract: a fetch
// whose head record has no reachable replica fails ErrUnavailable (the
// round trip itself fails), while a mid-batch unavailable record just
// truncates the batch so reachable records still flow.
func TestCursorUnavailableReplicas(t *testing.T) {
	faults := sim.NewFaultInjector()
	l := Open(Config{NumShards: 4, Replication: 1, Faults: faults})
	defer l.Close()
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Replication 1: record i lives only on shard i%4. Partition shard 2:
	// LSNs 2 and 6 become unreachable.
	faults.Partition("client", "shard/2")

	cur := l.OpenCursorOpts([]Tag{"t"}, 0, CursorOptions{Prefetch: -1})
	recs, err := cur.NextBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].LSN != 1 {
		t.Fatalf("batch = %d records, want truncation to [0 1] before unavailable LSN 2", len(recs))
	}
	// Head of the next fetch is the unavailable record itself.
	if _, err := cur.NextBatch(8); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("NextBatch at unavailable head = %v, want ErrUnavailable", err)
	}
	faults.Heal("client", "shard/2")
	recs, err = cur.NextBatch(8)
	if err != nil || len(recs) != 6 {
		t.Fatalf("after heal: (%d, %v), want 6 records", len(recs), err)
	}
}

// TestCursorNextBatchZeroAllocs is the read-path alloc gate (the dual
// of the write path's ~0.4 allocs/record): serving a warm NextBatch —
// index lookup, merge, resolve, serve — allocates nothing.
func TestCursorNextBatchZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	l := Open(Config{})
	defer l.Close()
	payload := make([]byte, 64)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		if _, err := l.Append([]Tag{"hot"}, payload); err != nil {
			t.Fatal(err)
		}
	}
	cur := l.OpenCursorOpts([]Tag{"hot"}, 0, CursorOptions{Prefetch: -1})
	if _, err := cur.NextBatch(64); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		recs, err := cur.NextBatch(64)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			cur.Seek(0)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm NextBatch allocates %v/op, want 0", allocs)
	}
}

// TestCursorMultiTagDedup asserts a record carrying several watched
// tags is returned exactly once by the k-way merge.
func TestCursorMultiTagDedup(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	if _, err := l.Append([]Tag{"a"}, []byte("0")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Tag{"a", "b"}, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Tag{"b"}, []byte("2")); err != nil {
		t.Fatal(err)
	}
	cur := l.OpenCursor([]Tag{"a", "b"}, 0)
	recs, err := cur.NextBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (multi-tag record deduped)", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != LSN(i) {
			t.Fatalf("rec %d at LSN %d, want %d", i, rec.LSN, i)
		}
	}
}

// TestCursorMultiTagSeesEveryRecord races a multi-tag cursor against
// appends whose LSN order is the reverse of their tags' index-shard
// order, so an insertion fills the later record's shard first. A
// cursor that merged its per-tag lookups while an insertion was half
// done would see the later record without the earlier one, move past
// the earlier one and never return it. Both insertion paths run: the
// vectorized pass of a two-entry AppendBatch and single appends.
func TestCursorMultiTagSeesEveryRecord(t *testing.T) {
	var early, late Tag
	for i := 0; early == "" || late == ""; i++ {
		tag := Tag(fmt.Sprintf("t%d", i))
		switch shardIdx(tag) {
		case indexShards - 1:
			early = tag
		case 0:
			late = tag
		}
	}
	l := Open(Config{})
	defer l.Close()
	const rounds = 3000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			var err error
			if i%2 == 0 {
				_, err = l.AppendBatch([]AppendEntry{{Tags: []Tag{early}}, {Tags: []Tag{late}}})
			} else if _, err = l.Append([]Tag{early}, nil); err == nil {
				_, err = l.Append([]Tag{late}, nil)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	cur := l.OpenCursor([]Tag{early, late}, 0)
	var got int
	var writerDone bool
	for got < 2*rounds {
		recs, err := cur.NextBatch(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.LSN != LSN(got) {
				t.Fatalf("cursor returned LSN %d, want %d: LSN %d was skipped", r.LSN, got, got)
			}
			got++
		}
		if len(recs) == 0 {
			if writerDone {
				break
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				writerDone = true
			default:
			}
		}
	}
	if got != 2*rounds {
		t.Fatalf("cursor returned %d of %d records", got, 2*rounds)
	}
}
