package server

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestSharedScanConcurrentNoPlug: grouping must also happen in the wild —
// concurrent identical queries with free admission slots, nothing holding
// the leader in the queue. The query is deliberately expensive (a large
// limit over the 3-hop pattern) so its evaluation window dwarfs the
// goroutine-scheduling stagger between arrivals even on a single CPU;
// cheap queries legitimately serialize and go solo (DESIGN.md §13).
func TestSharedScanConcurrentNoPlug(t *testing.T) {
	srv, err := New(Config{Store: heavyStore(t), AccessLog: io.Discard, MaxConcurrent: 8, MaxQueue: 32, QueueWait: 5 * time.Second, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := QueryRequest{Pattern: plugPattern(), Limit: 30000, TimeoutMS: 20000}
	var wg sync.WaitGroup
	var mu sync.Mutex
	shared := 0
	var first [][]string
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code := postQuery(t, ts, req)
			if code != 200 {
				t.Errorf("status %d", code)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if resp.Shared {
				shared++
			}
			if first == nil {
				first = resp.Rows
			} else if len(resp.Rows) != len(first) {
				t.Errorf("row count mismatch: %d vs %d", len(resp.Rows), len(first))
			}
		}()
	}
	wg.Wait()
	if shared == 0 {
		t.Fatalf("no request was served as a shared-scan follower (groups=%d followers=%d)",
			srv.met.sharedGroups.value(), srv.met.sharedFollowers.value())
	}
	t.Logf("followers: %d of 8", shared)
}
