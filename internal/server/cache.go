package server

import (
	"container/list"
	"sync"
)

// resultCache is a size-bounded LRU over encoded query results — the
// rows fragment of the response body (encode.go) — keyed on the
// canonical query form (query.Select.CacheKey, so syntactic variants of
// the same BGP share an entry). Bounded twice: by entry count and by
// bytes, whichever trips first. An entry's bytes are exact: its key,
// its body, and a fixed per-entry overhead (entryOverhead). The ring is
// immutable once loaded, so entries never go stale by themselves;
// invalidate is the hook a future dynamic store (or an index reload)
// calls to drop the generation wholesale.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int                      // immutable after construction
	maxBytes   int64                    // immutable after construction
	bytes      int64                    //ringlint:guarded-by mu
	ll         *list.List               // MRU at front; values are *cacheEntry //ringlint:guarded-by mu
	items      map[string]*list.Element //ringlint:guarded-by mu

	hits, misses, evictions, invalidations int64 //ringlint:guarded-by mu
}

type cacheEntry struct {
	key  string
	body []byte
	size int64
}

// entryOverhead is the fixed bookkeeping of one entry: the cacheEntry,
// its list element, and its map slot.
const entryOverhead = 128

// cacheStats is a point-in-time snapshot of the cache counters.
type cacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// get returns the cached body and marks the entry most-recently-used.
// Callers must treat the returned bytes as immutable — they are shared
// with every other hit for the same key.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(elem)
	return elem.Value.(*cacheEntry).body, true
}

// put inserts (or refreshes) an entry and evicts from the LRU tail until
// both bounds hold again. Entries bigger than the byte bound are not
// cached at all.
func (c *resultCache) put(key string, body []byte) {
	size := int64(len(key)+len(body)) + entryOverhead
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.items[key]; ok {
		old := elem.Value.(*cacheEntry)
		c.bytes += size - old.size
		old.body, old.size = body, size
		c.ll.MoveToFront(elem)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body, size: size})
		c.bytes += size
	}
	for c.ll.Len() > 0 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		tail := c.ll.Back()
		entry := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, entry.key)
		c.bytes -= entry.size
		c.evictions++
	}
}

// invalidate drops every entry.
func (c *resultCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
	c.bytes = 0
	c.invalidations++
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: c.ll.Len(), Bytes: c.bytes,
	}
}
