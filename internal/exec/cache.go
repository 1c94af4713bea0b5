package exec

import "sync"

// Cache is a bounded string-keyed memo, safe for concurrent use. Storing
// a new key into a full cache first evicts a quarter of the entries,
// sampled by Go's randomized map iteration order: cheaper than LRU
// bookkeeping on a hot path, and the rest of the working set survives
// the overflow. Stored values are shared with every Get — callers that
// hand a value out for mutation copy it. Each owner (a query.Index per
// snapshot, a mine for its merge-joins and the folds chained on it)
// makes its own with NewCache, so nothing cached outlives the state it
// was computed from.
type Cache[V any] struct {
	mu  sync.Mutex
	max int
	m   map[string]V
}

// NewCache returns an empty cache holding at most size entries (at least
// one).
func NewCache[V any](size int) *Cache[V] {
	return &Cache[V]{max: max(size, 1), m: make(map[string]V)}
}

// Get returns the value stored under key; the second result tells a
// stored zero value from a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

// Put stores v under key.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok && len(c.m) >= c.max {
		drop := max(c.max/4, 1)
		for k := range c.m {
			delete(c.m, k)
			if drop--; drop == 0 {
				break
			}
		}
	}
	c.m[key] = v
}

// Len returns the number of entries held.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
