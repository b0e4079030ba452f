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
	Model map[symbolic.Var]int64
}

// Cache is the solve cache: a bounded LRU memo of sliced solves, keyed
// by CacheKey.  Because the key renders the exact solver input — the
// predicate sequence plus the hint values the solve depends on — a hit
// is identical to re-running the solver: caching can change how fast a
// search runs, never what it finds.
//
// One search owns one cache, shared by all of its workers.  The key
// space is split over power-of-two shards by FNV-1a hash, each shard an
// LRU behind its own mutex, so workers solving unrelated constraints
// never contend on one lock; one worker gets one shard holding the
// whole capacity.  Sharing is sound because keys render against a
// variable numbering that is global to the search (every worker interns
// inputs in one registry), so a hit — whoever stored it — returns
// precisely what a fresh solve would.  The cache keeps no tallies: the
// engine books hits, misses and evictions from Get's and Put's results.
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
// one-shard cache skips the hash, which costs several times the lock
// on a key of a hundred bytes or more.
func (c *Cache) shardOf(key string) *cacheShard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&c.mask]
}

// Get returns the memoized result for key.  The model is copied, so
// callers may complete or consume it freely; the copy is made outside
// the lock, since a stored model is never written after Put.
func (c *Cache) Get(key string) (CachedSolve, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	res, ok := sh.lru.Get(key)
	sh.mu.Unlock()
	res.Model = maps.Clone(res.Model)
	return res, ok
}

// Put memoizes the result for key, evicting its shard's least recently
// used entry when the shard is full; it reports whether an eviction
// happened.  The model is copied at store time.
func (c *Cache) Put(key string, verdict Verdict, model map[symbolic.Var]int64) (evicted bool) {
	res := CachedSolve{Verdict: verdict, Model: maps.Clone(model)}
	sh := c.shardOf(key)
	sh.mu.Lock()
	evicted = sh.lru.Put(key, res)
	sh.mu.Unlock()
	return evicted
}
