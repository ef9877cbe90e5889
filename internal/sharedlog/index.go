package sharedlog

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The per-tag index of the committed-read plane. Lookups take only a
// sharded RWMutex read lock (hashed by tag), never the ordering mutex,
// so selective reads scale with readers. The ordering plane appends
// under the shard write lock — a short critical section per tag.
//
// Blocking readers register a waiter on each tag they watch; a commit
// detaches and wakes exactly the waiters of the tags it carries. This
// replaces the old global broadcast channel that woke every blocked
// reader on every commit (the thundering herd the wakeup counters in
// Stats make visible).

const indexShards = 16 // power of two; tags hash across these

type tagIndex struct {
	// pub orders multi-tag readers against insertions. Insertions fill
	// shards one at a time, so without it a reader merging several tags
	// shard by shard could see a later record on one shard before an
	// earlier record on another, move past the earlier one and never
	// return it. Insertions (add, addRecords) hold pub exclusively; a
	// reader that merges tags holds it shared across all of its per-tag
	// lookups, so no insertion lands between them.
	pub    sync.RWMutex
	shards [indexShards]indexShard
}

type indexShard struct {
	mu sync.RWMutex
	m  map[Tag]*tagEntry
}

// tagEntry is one tag's substream: its committed LSNs in ascending
// order, plus the readers currently blocked on it.
type tagEntry struct {
	lsns    []LSN
	waiters []*waiter
}

// waiter is one blocked read. It may be registered on several tags
// (ReadNextAny); the first commit on any of them wins the CAS and
// closes the channel, so a waiter wakes at most once.
type waiter struct {
	ch    chan struct{}
	woken atomic.Bool
}

func newWaiter() *waiter { return &waiter{ch: make(chan struct{})} }

// wake signals the waiter; reports whether this call was the one that
// woke it (false if it was already woken through another tag).
func (w *waiter) wake() bool {
	if w.woken.CompareAndSwap(false, true) {
		close(w.ch)
		return true
	}
	return false
}

func newTagIndex() *tagIndex {
	idx := &tagIndex{}
	for i := range idx.shards {
		idx.shards[i].m = make(map[Tag]*tagEntry)
	}
	return idx
}

// shardIdx hashes tag onto a shard index (FNV-1a).
func shardIdx(tag Tag) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= prime64
	}
	return h & (indexShards - 1)
}

func (x *tagIndex) shardFor(tag Tag) *indexShard {
	return &x.shards[shardIdx(tag)]
}

// add records lsn under every tag and wakes the readers blocked on those
// tags. Called by the ordering plane after the record is in the store.
// Returns how many waiters this commit woke.
func (x *tagIndex) add(tags []Tag, lsn LSN) int {
	var toWake []*waiter
	x.pub.Lock()
	for _, tag := range tags {
		s := x.shardFor(tag)
		s.mu.Lock()
		e := s.m[tag]
		if e == nil {
			e = &tagEntry{}
			s.m[tag] = e
		}
		e.lsns = append(e.lsns, lsn)
		if toWake == nil {
			toWake = e.waiters // the common case: no copy
		} else {
			toWake = append(toWake, e.waiters...)
		}
		e.waiters = nil
		s.mu.Unlock()
	}
	x.pub.Unlock()
	woken := 0
	for _, w := range toWake {
		if w.wake() {
			woken++
		}
	}
	return woken
}

// tagInsert is one (tag, lsn) pair of a vectorized index pass.
type tagInsert struct {
	tag Tag
	lsn LSN
}

// addRecords indexes a group of committed records in one vectorized
// pass: the (tag, lsn) inserts are bucketed by shard first, so each
// touched shard's write lock is taken once per group instead of once
// per tag occurrence. recs must be in ascending LSN order and the call
// must be serialized with every other index insertion (the ordering
// plane calls it under l.mu) — that is what keeps each per-tag LSN list
// sorted for the read plane's binary searches. Returns how many waiters
// the group woke.
func (x *tagIndex) addRecords(recs []*Record) int {
	if len(recs) == 0 {
		return 0
	}
	if len(recs) == 1 {
		return x.add(recs[0].Tags, recs[0].LSN)
	}
	var buckets [indexShards][]tagInsert
	for _, rec := range recs {
		for _, tag := range rec.Tags {
			i := shardIdx(tag)
			buckets[i] = append(buckets[i], tagInsert{tag: tag, lsn: rec.LSN})
		}
	}
	var toWake []*waiter
	x.pub.Lock()
	for i := range buckets {
		ins := buckets[i]
		if len(ins) == 0 {
			continue
		}
		s := &x.shards[i]
		s.mu.Lock()
		for _, in := range ins {
			e := s.m[in.tag]
			if e == nil {
				e = &tagEntry{}
				s.m[in.tag] = e
			}
			e.lsns = append(e.lsns, in.lsn)
			if len(e.waiters) > 0 {
				toWake = append(toWake, e.waiters...)
				e.waiters = nil
			}
		}
		s.mu.Unlock()
	}
	x.pub.Unlock()
	woken := 0
	for _, w := range toWake {
		if w.wake() {
			woken++
		}
	}
	return woken
}

// next returns the first LSN carrying tag at or after from.
func (x *tagIndex) next(tag Tag, from LSN) (LSN, bool) {
	s := x.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.m[tag]
	if e == nil {
		return 0, false
	}
	i := sort.Search(len(e.lsns), func(i int) bool { return e.lsns[i] >= from })
	if i == len(e.lsns) {
		return 0, false
	}
	return e.lsns[i], true
}

// nextN appends to dst up to max LSNs carrying tag at or after from, in
// ascending order, and returns the extended slice. One shard read lock
// and one binary search serve the whole run — the batched counterpart
// of next, used by cursor fetches.
func (x *tagIndex) nextN(tag Tag, from LSN, dst []LSN, max int) []LSN {
	s := x.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.m[tag]
	if e == nil {
		return dst
	}
	i := sort.Search(len(e.lsns), func(i int) bool { return e.lsns[i] >= from })
	for ; i < len(e.lsns) && len(dst) < max; i++ {
		dst = append(dst, e.lsns[i])
	}
	return dst
}

// prev returns the last LSN carrying tag at or before from.
func (x *tagIndex) prev(tag Tag, from LSN) (LSN, bool) {
	s := x.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.m[tag]
	if e == nil {
		return 0, false
	}
	i := sort.Search(len(e.lsns), func(i int) bool { return e.lsns[i] > from })
	if i == 0 {
		return 0, false
	}
	return e.lsns[i-1], true
}

// count reports how many live records carry tag.
func (x *tagIndex) count(tag Tag) int {
	s := x.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.m[tag]
	if e == nil {
		return 0
	}
	return len(e.lsns)
}

// register subscribes w to every tag; the next commit carrying one of
// them wakes it. The caller must re-check for a committed record after
// registering — a record may have landed between its check and the
// registration.
func (x *tagIndex) register(tags []Tag, w *waiter) {
	for _, tag := range tags {
		s := x.shardFor(tag)
		s.mu.Lock()
		e := s.m[tag]
		if e == nil {
			e = &tagEntry{}
			s.m[tag] = e
		}
		e.waiters = append(e.waiters, w)
		s.mu.Unlock()
	}
}

// unregister removes w from every tag it was registered on. Safe to
// call after the waiter fired (commit detaches the woken tag's list,
// but w may still sit on the other tags of a multi-tag wait).
func (x *tagIndex) unregister(tags []Tag, w *waiter) {
	for _, tag := range tags {
		s := x.shardFor(tag)
		s.mu.Lock()
		if e := s.m[tag]; e != nil {
			for i, o := range e.waiters {
				if o == w {
					last := len(e.waiters) - 1
					e.waiters[i] = e.waiters[last]
					e.waiters[last] = nil
					e.waiters = e.waiters[:last]
					break
				}
			}
			if len(e.lsns) == 0 && len(e.waiters) == 0 {
				delete(s.m, tag)
			}
		}
		s.mu.Unlock()
	}
}

// prune drops every indexed LSN below upTo, deleting tags whose
// substream is now empty (unless readers still wait on them).
func (x *tagIndex) prune(upTo LSN) {
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.Lock()
		for tag, e := range s.m {
			cut := sort.Search(len(e.lsns), func(i int) bool { return e.lsns[i] >= upTo })
			if cut == 0 {
				continue
			}
			if cut == len(e.lsns) && len(e.waiters) == 0 {
				delete(s.m, tag)
				continue
			}
			// Compact into a fresh slice so the trimmed prefix's backing
			// array is released.
			e.lsns = append([]LSN(nil), e.lsns[cut:]...)
		}
		s.mu.Unlock()
	}
}
