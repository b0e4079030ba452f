package solver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dart/internal/symbolic"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(64, 4)
	hits, misses := 0, 0
	get := func(key string) (CachedSolve, bool) {
		res, ok := c.Get(key)
		if ok {
			hits++
		} else {
			misses++
		}
		return res, ok
	}
	if _, ok := get("k1"); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put("k1", Sat, map[symbolic.Var]int64{0: 42})
	if res, ok := get("k1"); !ok || res.Verdict != Sat || res.Model[0] != 42 {
		t.Fatalf("Get(k1) = %+v, %v", res, ok)
	}
	c.Put("k2", Unsat, nil)
	if res, ok := get("k2"); !ok || res.Verdict != Unsat || res.Model != nil {
		t.Fatalf("Get(k2) = %+v, %v", res, ok)
	}
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestCacheShardCount(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8},
	} {
		if got := len(NewCache(0, tc.workers).shards); got != tc.want {
			t.Errorf("workers=%d: got %d shards, want %d", tc.workers, got, tc.want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1)
	evictions := 0
	put := func(key string, v Verdict, m map[symbolic.Var]int64) bool {
		evicted := c.Put(key, v, m)
		if evicted {
			evictions++
		}
		return evicted
	}
	put("k1", Sat, map[symbolic.Var]int64{0: 1})
	if put("k2", Unsat, nil) {
		t.Error("filling to capacity must not evict")
	}
	c.Get("k1") // k2 becomes least recently used
	if !put("k3", Sat, nil) {
		t.Error("inserting past capacity must evict")
	}
	if _, ok := c.Get("k2"); ok {
		t.Error("the LRU entry (k2) should have been evicted")
	}
	for _, k := range []string{"k1", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s must survive", k)
		}
	}
	if evictions != 1 {
		t.Errorf("evictions=%d, want 1", evictions)
	}
}

func TestCacheShardEviction(t *testing.T) {
	// Total capacity 4 over 2 shards: 2 entries per shard.  Inserting
	// many distinct keys must evict, and every put either left its key
	// held or evicted another, so held + evicted = puts with at most
	// the capacity held.
	c := NewCache(4, 2)
	const puts = 32
	evictions, held := 0, 0
	for i := 0; i < puts; i++ {
		if c.Put(fmt.Sprintf("key-%d", i), Unsat, nil) {
			evictions++
		}
	}
	for i := 0; i < puts; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); ok {
			held++
		}
	}
	if evictions == 0 {
		t.Error("no evictions after overfilling")
	}
	if held > 4 {
		t.Errorf("%d keys held, beyond the total capacity 4", held)
	}
	if evictions+held != puts {
		t.Errorf("evictions=%d + held=%d != %d puts", evictions, held, puts)
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := NewCache(1, 1)
	c.Put("k", Sat, map[symbolic.Var]int64{0: 1})
	if c.Put("k", Unsat, nil) {
		t.Error("re-memoizing an existing key must not evict")
	}
	got, ok := c.Get("k")
	if !ok || got.Verdict != Unsat {
		t.Errorf("updated entry = %+v, want Unsat", got)
	}
}

func TestShardedCacheOverwrite(t *testing.T) {
	c := NewCache(8, 2)
	c.Put("k", Unsat, nil)
	if evicted := c.Put("k", Sat, map[symbolic.Var]int64{1: 5}); evicted {
		t.Error("overwriting a live key reported an eviction")
	}
	res, ok := c.Get("k")
	if !ok || res.Verdict != Sat || res.Model[1] != 5 {
		t.Fatalf("Get after overwrite = %+v, %v", res, ok)
	}
	held := 0
	for i := range c.shards {
		held += c.shards[i].lru.Len()
	}
	if held != 1 {
		t.Errorf("%d entries held, want 1", held)
	}
}

func TestCacheModelIsCopied(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := NewCache(4, workers)
		model := map[symbolic.Var]int64{0: 10}
		c.Put("k", Sat, model)
		model[0] = 99 // caller mutates after store
		got, _ := c.Get("k")
		if got.Model[0] != 10 {
			t.Errorf("workers=%d: stored model aliased the caller's map", workers)
		}
		got.Model[0] = 55 // consumer mutates the returned copy
		again, _ := c.Get("k")
		if again.Model[0] != 10 {
			t.Errorf("workers=%d: returned model aliased the cached map", workers)
		}
	}
}

// TestCacheConcurrent hammers one cache from many goroutines with
// overlapping key sets; run under -race this is the data-race gate for
// the shard locking and the model copies made outside it.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128, 8)
	var wg sync.WaitGroup
	var hits atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", i%64)
				if res, ok := c.Get(key); ok {
					hits.Add(1)
					if res.Verdict != Sat || res.Model[0] != int64(i%64) {
						t.Errorf("goroutine %d: key %s has %+v", g, key, res)
					}
					res.Model[0] = -1 // the copy is the caller's to write
					continue
				}
				c.Put(key, Sat, map[symbolic.Var]int64{0: int64(i % 64)})
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no hits over 4,000 lookups of 64 keys")
	}
}
