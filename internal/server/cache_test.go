package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := newResultCache(4, 1<<20)
	if _, ok := c.get("q1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("q1", []byte(`"alice"`))
	got, ok := c.get("q1")
	if !ok || string(got) != `"alice"` {
		t.Fatalf("get = %v, %v", got, ok)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, 1<<20)
	c.put("a", nil)
	c.put("b", nil)
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", nil) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if st := c.stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

func TestCacheByteBound(t *testing.T) {
	// Empty-body entries cost len(key)+entryOverhead bytes; three fit
	// only two at a time under this bound.
	bound := int64(2 * (1 + entryOverhead))
	c := newResultCache(0, bound)
	c.put("a", nil)
	c.put("b", nil)
	c.put("c", nil)
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	if st.Bytes > bound {
		t.Fatalf("bytes = %d, exceeds bound", st.Bytes)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
}

func TestCacheOversizeEntrySkipped(t *testing.T) {
	c := newResultCache(4, 400)
	c.put("big", []byte(strings.Repeat("v", 400)))
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize entry was cached: %+v", st)
	}
	// The bound is inclusive of the exact entry size.
	fits := []byte(strings.Repeat("v", 400-len("big")-entryOverhead))
	c.put("big", fits)
	if st := c.stats(); st.Entries != 1 || st.Bytes != 400 {
		t.Fatalf("entry of exactly the bound: %+v", st)
	}
}

func TestCacheRefreshInPlace(t *testing.T) {
	c := newResultCache(4, 1<<20)
	c.put("q", []byte("old"))
	c.put("q", []byte("newer"))
	got, ok := c.get("q")
	if !ok || string(got) != "newer" {
		t.Fatalf("refresh lost: %v %v", got, ok)
	}
	st := c.stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 after refresh", st.Entries)
	}
	if want := int64(len("q") + len("newer") + entryOverhead); st.Bytes != want {
		t.Fatalf("bytes = %d, want re-accounted %d", st.Bytes, want)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newResultCache(4, 1<<20)
	c.put("a", nil)
	c.put("b", nil)
	c.invalidate()
	st := c.stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidations != 1 {
		t.Fatalf("stats after invalidate = %+v", st)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("entry survived invalidation")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(8, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", (g+i)%16)
				if _, ok := c.get(key); !ok {
					c.put(key, []byte(key))
				}
			}
		}()
	}
	wg.Wait()
	if st := c.stats(); st.Entries > 8 {
		t.Fatalf("entry bound violated: %+v", st)
	}
}

// postRaw posts a query and returns the raw 200 response body.
func postRaw(t *testing.T, url string, req QueryRequest) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d, err %v: %s", resp.StatusCode, err, b)
	}
	return b
}

// entrySizes walks the cache and returns each entry's exact size, keyed
// by its body.
func entrySizes(c *resultCache) map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]int64{}
	for key, elem := range c.items {
		body := elem.Value.(*cacheEntry).body
		out[string(body)] = int64(len(key)+len(body)) + entryOverhead
	}
	return out
}

// TestCacheBytesExact: /stats cache.bytes is exactly the sum over entries
// of key, body and entryOverhead; each cached body is byte for byte the
// rows fragment its response carried; and a body larger than CacheBytes
// is served but not cached.
func TestCacheBytesExact(t *testing.T) {
	small := QueryRequest{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}}
	big := QueryRequest{Pattern: []PatternJSON{{S: "?s", P: "?p", O: "?o"}}}
	queries := []QueryRequest{small, big,
		{Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}, {S: "?y", P: "likes", O: "?z"}}}}

	srv, ts := newTestServer(t, Config{})
	fragments := make([]string, len(queries))
	for i, q := range queries {
		body := postRaw(t, ts.URL, q)
		end := bytes.Index(body, []byte(`,"elapsed_ms":`))
		if end < 0 {
			t.Fatalf("unexpected body %s", body)
		}
		fragments[i] = string(body[:end])
	}
	sizes := entrySizes(srv.cache)
	var sum int64
	for _, f := range fragments {
		size, ok := sizes[f]
		if !ok {
			t.Fatalf("no cache entry holds the served fragment %s", f)
		}
		sum += size
	}
	var stats struct {
		Cache cacheStats `json:"cache"`
	}
	body, _ := getBody(t, ts.URL+"/stats")
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Entries != len(queries) || stats.Cache.Bytes != sum {
		t.Fatalf("/stats cache = %+v, want %d entries and %d bytes", stats.Cache, len(queries), sum)
	}

	// A bound one byte below the big entry: it is served, never cached,
	// while the small entry still fits.
	bigSize, smallSize := sizes[fragments[1]], sizes[fragments[0]]
	if smallSize >= bigSize {
		t.Fatalf("sizes: small %d, big %d", smallSize, bigSize)
	}
	srv2, ts2 := newTestServer(t, Config{CacheBytes: bigSize - 1})
	for i := 0; i < 2; i++ {
		if qr, _ := postQuery(t, ts2, big); qr.Cached || qr.Count != 5 {
			t.Fatalf("oversize result: cached %v, count %d", qr.Cached, qr.Count)
		}
	}
	if st := srv2.cache.stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize body was cached: %+v", st)
	}
	postQuery(t, ts2, small)
	if st := srv2.cache.stats(); st.Entries != 1 || st.Bytes != smallSize {
		t.Fatalf("small entry: %+v, want 1 entry of %d bytes", st, smallSize)
	}
}
