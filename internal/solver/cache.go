package solver

import (
	"maps"
	"sync"

	"dart/internal/lru"
	"dart/internal/symbolic"
)

// DefaultCacheCap is the solve-cache capacity used when a caller asks
// for a cache without choosing one.  Directed searches rarely see more
// than a few thousand distinct (slice, hint) keys before restarting, so
// this bounds memory without measurable hit-rate loss.
const DefaultCacheCap = 1024

// CachedSolve is one memoized slice-level solve result: the verdict and,
// for Sat, the model.  It is the *pre-verification* result — callers
// re-verify against their full conjunction on every use, so a cached
// entry never weakens the soundness contract.
type CachedSolve struct {
	Verdict Verdict
	// Model is the satisfying assignment (nil unless Verdict is Sat).
	// Every hit on the entry returns this one map: it is read-only.
	Model map[symbolic.Var]int64
}

// Cache is the solve cache: a bounded LRU memo of sliced solves, keyed
// by CacheKey's bytes.  Because the key encodes the exact solver input —
// the predicate sequence plus the hint values the solve depends on — a
// hit is identical to re-running the solver: caching can change how
// fast a search runs, never what it finds.
//
// A hit allocates nothing.  Get looks a key up by the bytes the caller
// rendered (Path.Key) without turning them into a string, and the
// map's own comparison checks the whole key; it returns the stored
// model, shared by every hit and read-only.  Put copies the key and the
// model, so a caller may reuse its buffer and its map.
//
// One search owns one cache, shared by all of its workers.  The key
// space is split over power-of-two shards by an FNV-1a hash of the key
// bytes, each shard an LRU behind its own mutex, so workers solving
// unrelated constraints never contend on one lock; one worker gets one
// shard holding the whole capacity.  Sharing is sound because keys
// encode a variable numbering that is global to the search (every
// worker interns inputs in one registry), so a hit — whoever stored it
// — returns precisely what a fresh solve would.  The cache keeps no
// tallies: the engine books hits, misses and evictions from Get's and
// Put's results.
type Cache struct {
	shards []cacheShard
	mask   uint32
}

type cacheShard struct {
	mu  sync.Mutex
	lru *lru.Cache[CachedSolve]
	// padding to keep neighbouring shard locks off one cache line.
	_ [48]byte
}

// NewCache returns a cache holding up to capacity entries in total
// (<= 0 selects DefaultCacheCap) for a search of the given number of
// workers: the smallest power of two of shards at least workers, each
// holding an equal part of the capacity (at least one entry).
func NewCache(capacity, workers int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	n := 1
	for n < workers {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i].lru = lru.New[CachedSolve](capacity / n)
	}
	return c
}

// shardOf hashes key with FNV-1a and masks into the shard table.  A
// one-shard cache skips the hash.  FNV-1a's low bits mix least (its
// lowest is the parity of the bytes' lowest), which leaves binary keys
// unevenly split, so the high half is folded in before the mask.
func (c *Cache) shardOf(key []byte) *cacheShard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return &c.shards[(h>>16^h)&c.mask]
}

// Get returns the memoized result for key.  The model is the stored
// map itself, which callers only read.
func (c *Cache) Get(key []byte) (CachedSolve, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	res, ok := sh.lru.GetBytes(key)
	sh.mu.Unlock()
	return res, ok
}

// Put memoizes the result for key, evicting its shard's least recently
// used entry when the shard is full; it reports whether an eviction
// happened.  The key and the model are copied at store time.
func (c *Cache) Put(key []byte, verdict Verdict, model map[symbolic.Var]int64) (evicted bool) {
	k, res := string(key), CachedSolve{Verdict: verdict, Model: maps.Clone(model)}
	sh := c.shardOf(key)
	sh.mu.Lock()
	evicted = sh.lru.Put(k, res)
	sh.mu.Unlock()
	return evicted
}
