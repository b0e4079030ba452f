// Package lru is the bounded least-recently-used map behind every
// in-memory memo of the repository: the solver's solve cache and the
// job server's result store.  A Cache is not safe for concurrent use;
// its callers hold their own lock.
package lru

import "container/list"

// Cache maps string keys to values of type V and holds at most its
// capacity: a new key put into a full cache evicts the least recently
// used one.
type Cache[V any] struct {
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache that holds up to capacity entries (at
// least one).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:   max(capacity, 1),
		items: make(map[string]*list.Element),
		order: list.New(),
	}
}

// Get returns the value under key and makes key the most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores v under key as the most recently used entry, replacing the
// value of a key already held.  It reports whether a new key found the
// cache full and so evicted the least recently used entry.
func (c *Cache[V]) Put(key string, v V) (evicted bool) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = v
		c.order.MoveToFront(el)
		return false
	}
	if c.order.Len() < c.cap {
		c.items[key] = c.order.PushFront(&entry[V]{key: key, val: v})
		return false
	}
	// Full: the least recently used entry takes the new key in place.
	el := c.order.Back()
	e := el.Value.(*entry[V])
	delete(c.items, e.key)
	e.key, e.val = key, v
	c.order.MoveToFront(el)
	c.items[key] = el
	return true
}

// Len returns the number of entries held.
func (c *Cache[V]) Len() int { return c.order.Len() }
