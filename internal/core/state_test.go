package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"impeller/internal/sharedlog"
)

func TestStateStoreBasics(t *testing.T) {
	s := NewStateStore(nil)
	if _, ok := s.Get("k"); ok {
		t.Fatal("missing key present")
	}
	s.Put("k", []byte("v"))
	if v, ok := s.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key present")
	}
	if s.Mutations() != 2 {
		t.Fatalf("Mutations = %d", s.Mutations())
	}
}

func TestStateStoreChangeCapture(t *testing.T) {
	type change struct {
		key     string
		value   string
		deleted bool
	}
	var log []change
	s := NewStateStore(func(k string, v []byte, del bool) {
		log = append(log, change{k, string(v), del})
	})
	s.Put("a", []byte("1"))
	s.Put("a", []byte("2"))
	s.Delete("a")
	want := []change{{"a", "1", false}, {"a", "2", false}, {"a", "", true}}
	if len(log) != len(want) {
		t.Fatalf("captured %d changes, want %d", len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("change %d = %+v, want %+v", i, log[i], want[i])
		}
	}
}

func TestStateStoreApplyChangeDoesNotRelog(t *testing.T) {
	calls := 0
	s := NewStateStore(func(string, []byte, bool) { calls++ })
	s.ApplyChange("k", []byte("v"), false)
	if calls != 0 {
		t.Fatal("ApplyChange invoked onChange")
	}
	if v, ok := s.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("state = %q,%v", v, ok)
	}
	s.ApplyChange("k", nil, true)
	if _, ok := s.Get("k"); ok {
		t.Fatal("delete replay failed")
	}
}

func TestStateStoreRangeSortedPrefix(t *testing.T) {
	s := NewStateStore(nil)
	for _, k := range []string{"w/3", "w/1", "w/2", "other"} {
		s.Put(k, []byte(k))
	}
	var got []string
	s.Range("w/", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []string{"w/1", "w/2", "w/3"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Range = %v", got)
	}
	// Early stop.
	n := 0
	s.Range("w/", func(string, []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStateStore(nil)
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("key/%d", i), []byte(fmt.Sprintf("val/%d", i)))
	}
	s.Delete("key/50")
	snap := s.Snapshot()

	r := NewStateStore(nil)
	r.Put("stale", []byte("gone")) // restore must replace, not merge
	if err := r.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 99 {
		t.Fatalf("restored Len = %d, want 99", r.Len())
	}
	if _, ok := r.Get("stale"); ok {
		t.Fatal("restore merged instead of replacing")
	}
	if v, ok := r.Get("key/7"); !ok || string(v) != "val/7" {
		t.Fatalf("key/7 = %q,%v", v, ok)
	}
}

func TestRestoreSnapshotRejectsGarbage(t *testing.T) {
	s := NewStateStore(nil)
	if err := s.RestoreSnapshot([]byte{1, 2}); err == nil {
		t.Fatal("short snapshot restored")
	}
	good := s.Snapshot()
	if err := s.RestoreSnapshot(append(good, 9)); err == nil {
		t.Fatal("trailing junk restored")
	}
}

func TestEncodeDecodeChange(t *testing.T) {
	v, del, err := DecodeChange(EncodeChange([]byte("hello"), false))
	if err != nil || del || string(v) != "hello" {
		t.Fatalf("put round trip: %q %v %v", v, del, err)
	}
	v, del, err = DecodeChange(EncodeChange(nil, true))
	if err != nil || !del || v != nil {
		t.Fatalf("delete round trip: %q %v %v", v, del, err)
	}
	if _, _, err := DecodeChange(nil); err == nil {
		t.Fatal("empty change decoded")
	}
	if _, _, err := DecodeChange([]byte{77}); err == nil {
		t.Fatal("unknown op decoded")
	}
}

// Property: replaying captured changes into a fresh store reproduces the
// original contents exactly — the recovery invariant (paper §3.3.4).
func TestPropertyChangelogReplayEquivalence(t *testing.T) {
	type op struct {
		Key    uint8
		Value  uint16
		Delete bool
	}
	check := func(ops []op) bool {
		type change struct {
			key     string
			value   []byte
			deleted bool
		}
		var log []change
		s := NewStateStore(func(k string, v []byte, del bool) {
			log = append(log, change{k, append([]byte(nil), v...), del})
		})
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%8)
			if o.Delete {
				s.Delete(k)
			} else {
				s.Put(k, []byte(fmt.Sprint(o.Value)))
			}
		}
		r := NewStateStore(nil)
		for _, c := range log {
			r.ApplyChange(c.key, c.value, c.deleted)
		}
		if r.Len() != s.Len() {
			return false
		}
		equal := true
		s.Range("", func(k string, v []byte) bool {
			rv, ok := r.Get(k)
			if !ok || !bytes.Equal(rv, v) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore is lossless for arbitrary contents.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	check := func(keys []string, values [][]byte) bool {
		s := NewStateStore(nil)
		for i, k := range keys {
			var v []byte
			if i < len(values) {
				v = values[i]
			}
			s.Put(k, v)
		}
		r := NewStateStore(nil)
		if err := r.RestoreSnapshot(s.Snapshot()); err != nil {
			return false
		}
		if r.Len() != s.Len() {
			return false
		}
		ok := true
		s.Range("", func(k string, v []byte) bool {
			rv, found := r.Get(k)
			if !found || !bytes.Equal(rv, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPersistSeqKeyRoundTrip pins the "_seq/<group>/<producer>" layout
// that persistSeq writes (from its per-seqKey cache) and
// restoreSeqFromStore parses.
func TestPersistSeqKeyRoundTrip(t *testing.T) {
	env := (&Env{Log: sharedlog.Open(sharedlog.Config{}), Protocol: ProtoProgressMarker}).withDefaults()
	defer env.Log.Close()
	stage := &Stage{
		Name:         "st",
		Parallelism:  1,
		Inputs:       []StreamID{"in"},
		NewProcessor: func() Processor { return Count("c") },
		Stateful:     true,
	}
	task := NewTask(stage, 0, 1, env, TaskOptions{})
	sk := seqKey{group: 0, producer: "up/3"}
	for _, seq := range []uint64{5, 9} {
		task.lastSeq[sk] = seq
		task.persistSeq(sk)
	}
	v, ok := task.store.Get("_seq/0/up/3")
	if !ok || getUint64(v) != 9 {
		t.Fatalf("_seq/0/up/3 = %v, %v; want 9", v, ok)
	}
	delete(task.lastSeq, sk)
	task.restoreSeqFromStore()
	if got := task.lastSeq[sk]; got != 9 {
		t.Fatalf("restored floor = %d, want 9", got)
	}
}
