package api

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// resultCache is a small LRU over marshal-ready response values, keyed
// by the quantized query parameters (see Server's window snapping). The
// collection behind a Router is immutable, so entries never go stale
// and no TTL is needed; capacity is the only eviction pressure.
//
// Hit/miss counters are atomics so /metrics can read them without
// taking the cache lock.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List                 // front = most recently used
	items map[cacheKey]*list.Element // value: *cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// cacheKey names one cached answer: the cache generation it was computed
// in (see Server.gen), the query kind ('w', 'n' or 'i') and its
// parameters — the served window's corners, or a point and for nearest
// its k.
type cacheKey struct {
	gen        uint64
	kind       byte
	a, b, c, d int32
}

type cacheEntry struct {
	key cacheKey
	val any
}

// newResultCache returns a cache holding up to capacity entries;
// capacity <= 0 disables caching (every lookup misses, puts are
// dropped).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[cacheKey]*list.Element),
	}
}

func (c *resultCache) get(key cacheKey) (any, bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).val, true
}

func (c *resultCache) put(key cacheKey, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// counters returns the cumulative hit and miss counts.
func (c *resultCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
