package lru

import (
	"fmt"
	"testing"
)

func TestGetRefreshesRecency(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // b is now least recent
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if !c.Put("c", 3) {
		t.Fatal("a new key in a full cache must evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b was least recently used and must be evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("recently read a was evicted: Get(a) = %d, %v", v, ok)
	}
}

func TestPutReplacesHeldKey(t *testing.T) {
	c := New[string](2)
	c.Put("a", "first")
	c.Put("b", "B")
	if c.Put("a", "second") { // a is now most recent, b least
		t.Error("replacing a held key must not evict")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d after a replace, want 2", c.Len())
	}
	if v, _ := c.Get("a"); v != "second" {
		t.Errorf("Get(a) = %q, want the replacing value", v)
	}
	c.Put("a", "third")
	c.Put("c", "C")
	if _, ok := c.Get("b"); ok {
		t.Error("b must be evicted: the replace refreshed a")
	}
	if v, ok := c.Get("a"); !ok || v != "third" {
		t.Errorf("Get(a) = %q, %v; want third, true", v, ok)
	}
}

func TestPutEvictsLeastRecentWhenFull(t *testing.T) {
	const capacity = 4
	c := New[int](capacity)
	for i := 0; i < 16; i++ {
		evicted := c.Put(fmt.Sprintf("k%d", i), i)
		if want := i >= capacity; evicted != want {
			t.Errorf("Put #%d reported evicted=%v, want %v", i, evicted, want)
		}
		if want := min(i+1, capacity); c.Len() != want {
			t.Errorf("Len = %d after %d puts, want %d", c.Len(), i+1, want)
		}
	}
	// Insertion order is recency order here: only the last four remain.
	for i := 0; i < 16; i++ {
		v, ok := c.Get(fmt.Sprintf("k%d", i))
		if want := i >= 16-capacity; ok != want || (ok && v != i) {
			t.Errorf("Get(k%d) = %d, %v; want held=%v", i, v, ok, want)
		}
	}
}

func TestCapacityAtLeastOne(t *testing.T) {
	c := New[int](0)
	if c.Put("a", 1) {
		t.Error("the first put must not evict")
	}
	if !c.Put("b", 2) {
		t.Error("a one-entry cache must evict on its second key")
	}
	if _, ok := c.Get("b"); !ok || c.Len() != 1 {
		t.Errorf("Len = %d, b held = %v; want 1, true", c.Len(), ok)
	}
}
