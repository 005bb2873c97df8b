package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// The shared-scan tests orchestrate grouping deterministically with a
// "plug": MaxConcurrent 1 and one slow NoCache query (which bypasses the
// shared path) holding the only admission slot. Group members posted
// while the plug runs all attach to one group — the leader cannot start
// until the plug's timeout releases the slot, so the attach window is
// hundreds of milliseconds wide.

// plugPattern is a 3-hop all-variable join over heavyStore: it cannot
// finish within its deadline, so it pins the admission slot for exactly
// TimeoutMS — provided the server's MaxLimit does not cap it first, which
// is why every plugged test raises MaxLimit.
func plugPattern() []PatternJSON {
	return []PatternJSON{
		{S: "?a", P: "?p", O: "?b"},
		{S: "?b", P: "?q", O: "?c"},
		{S: "?c", P: "?r", O: "?d"},
	}
}

// startPlug posts the plug query from its own goroutine and gives it
// time to be admitted; the returned func waits for it to finish.
func startPlug(t *testing.T, url string, timeoutMS int) func() {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(QueryRequest{
			Pattern: plugPattern(), Limit: 1 << 30, TimeoutMS: timeoutMS, NoCache: true,
		})
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // the empty slot admits it immediately
	return func() { <-done }
}

// sharedMix is the eligible group query the tests fan out: a selective
// 2-pattern join over heavyStore, anchored on one subject.
func sharedMix() []PatternJSON {
	return []PatternJSON{
		{S: "n000", P: "?p", O: "?b"},
		{S: "?b", P: "p0", O: "?c"},
	}
}

func TestSharedScanFanout(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Store:         heavyStore(t),
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueWait:     5 * time.Second,
		MaxLimit:      1 << 30,
	})
	wait := startPlug(t, ts.URL, 600)

	// Six identical queries against one admission slot and four queue
	// places: without sharing at least one would shed; with sharing one
	// leader queues and five followers ride along.
	const clients = 6
	type result struct {
		qr   *QueryResponse
		code int
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, code := postQuery(t, ts, QueryRequest{Pattern: sharedMix()})
			results[i] = result{qr, code}
		}(i)
	}
	wg.Wait()
	wait()

	shared := 0
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, r.code)
		}
		if !sameResult(r.qr, results[0].qr) {
			t.Fatalf("client %d rows differ from client 0", i)
		}
		if r.qr.Shared {
			shared++
		}
	}
	if shared != clients-1 {
		t.Fatalf("shared followers = %d, want %d", shared, clients-1)
	}

	// Every member filled the cache under its own key; the next identical
	// query is a plain cache hit.
	qr, code := postQuery(t, ts, QueryRequest{Pattern: sharedMix()})
	if code != http.StatusOK || !qr.Cached {
		t.Fatalf("post-group query: code %d cached %v, want a cache hit", code, qr.Cached)
	}

	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "ringserve_shared_scan_groups_total 1") {
		t.Fatalf("metrics missing shared group:\n%s", metrics)
	}
	if !strings.Contains(metrics, "ringserve_shared_scan_followers_total 5") {
		t.Fatalf("metrics missing shared followers:\n%s", metrics)
	}
}

// TestSharedScanVariantViews: members with different projections, limits
// and offsets attach to one evaluation and each get exactly what a solo
// run, and the per-solution map encoder, would have produced.
func TestSharedScanVariantViews(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Store:         heavyStore(t),
		MaxLimit:      1 << 30,
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueWait:     5 * time.Second,
		CacheEntries:  -1, // misses every time, so the solo oracles re-evaluate
	})
	wait := startPlug(t, ts.URL, 600)

	variants := []QueryRequest{
		{Pattern: sharedMix()},                         // full default-limit view: posted first, so it leads
		{Pattern: sharedMix(), Project: []string{"b"}}, // projection
		{Pattern: sharedMix(), Offset: 2, Limit: 3},    // window
		{Pattern: sharedMix(), Limit: 1},               // tiny limit
		{Pattern: sharedMix(), Project: []string{"c"}}, // other projection
	}
	results := make([]*QueryResponse, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v QueryRequest) {
			defer wg.Done()
			qr, code := postQuery(t, ts, v)
			if code != http.StatusOK {
				t.Errorf("variant %d: status %d", i, code)
				return
			}
			results[i] = qr
		}(i, v)
		if i == 0 {
			time.Sleep(50 * time.Millisecond) // let the widest view become leader
		}
	}
	wg.Wait()
	wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := 1; i < len(variants); i++ {
		if !results[i].Shared {
			t.Errorf("variant %d did not attach to the group", i)
		}
	}
	// Solo oracles: NoCache bypasses the shared path and the engine is
	// deterministic in sequential mode, so views must match byte for byte;
	// and each view must be the map encoder's answer to its own request.
	for i, v := range variants {
		checkAgainstOracle(t, fmt.Sprintf("shared variant %d", i), results[i], v,
			mapOracle(t, heavyStore(t), v, effectiveLimit(v.Limit, 1000, 1<<30)), true)
		v.NoCache = true
		solo, code := postQuery(t, ts, v)
		if code != http.StatusOK {
			t.Fatalf("variant %d solo: status %d", i, code)
		}
		if !sameResult(results[i], solo) {
			t.Fatalf("variant %d: shared view differs from solo run:\nshared: %v %v\nsolo:   %v %v",
				i, results[i].Vars, results[i].Rows, solo.Vars, solo.Rows)
		}
	}
}

// TestSharedScanDisabled: with the knob off, the fan-out scenario from
// TestSharedScanFanout degrades to solo evaluations — some of which shed,
// since six requests now compete for one slot and four queue places.
func TestSharedScanDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Store:             heavyStore(t),
		MaxLimit:          1 << 30,
		MaxConcurrent:     1,
		MaxQueue:          4,
		QueueWait:         50 * time.Millisecond,
		DisableSharedScan: true,
		CacheEntries:      -1,
	})
	wait := startPlug(t, ts.URL, 400)

	const clients = 6
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, codes[i] = postQuery(t, ts, QueryRequest{Pattern: sharedMix()})
		}(i)
	}
	wg.Wait()
	wait()

	shed := 0
	for _, code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if code != http.StatusOK {
				shed++
			}
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if shed == 0 {
		t.Fatal("DisableSharedScan: all six queries succeeded through one slot and four queue places — sharing still active?")
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "ringserve_shared_scan_groups_total 0") {
		t.Fatalf("metrics recorded a shared group despite DisableSharedScan:\n%s", metrics)
	}
}

// TestSharedScanIneligible: Distinct, OrderBy and NoCache queries bypass
// grouping and still answer correctly.
func TestSharedScanIneligible(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]QueryRequest{
		"distinct": {Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}, Project: []string{"x"}, Distinct: true},
		"orderby":  {Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}, OrderBy: []string{"x"}},
		"nocache":  {Pattern: []PatternJSON{{S: "?x", P: "knows", O: "?y"}}, NoCache: true},
	} {
		qr, code := postQuery(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if qr.Shared {
			t.Fatalf("%s: ineligible query marked shared", name)
		}
		if qr.Count != 3 {
			t.Fatalf("%s: count = %d, want 3", name, qr.Count)
		}
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "ringserve_shared_scan_followers_total 0") {
		t.Fatalf("ineligible queries attached to groups:\n%s", metrics)
	}
}

// TestSharedScanFollowerDisconnect: a follower abandoning the group does
// not disturb the leader or the remaining followers.
func TestSharedScanFollowerDisconnect(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Store:         heavyStore(t),
		MaxLimit:      1 << 30,
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueWait:     5 * time.Second,
		CacheEntries:  -1,
	})
	wait := startPlug(t, ts.URL, 600)

	type result struct {
		qr   *QueryResponse
		code int
	}
	stay := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			qr, code := postQuery(t, ts, QueryRequest{Pattern: sharedMix()})
			stay <- result{qr, code}
		}()
	}
	time.Sleep(50 * time.Millisecond) // both attached (leader + follower)

	// Third member attaches, then its client goes away mid-wait.
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(QueryRequest{Pattern: sharedMix()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Log("disconnecting follower got a response before the cancel landed")
	}

	for i := 0; i < 2; i++ {
		r := <-stay
		if r.code != http.StatusOK {
			t.Fatalf("surviving member %d: status %d", i, r.code)
		}
	}
	wait()
}

// TestSharedScanTimeoutFanout: the shared evaluation hitting its deadline
// surfaces as TimedOut partial results on every member.
func TestSharedScanTimeoutFanout(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: heavyStore(t), MaxLimit: 1 << 30})
	const clients = 4
	type result struct {
		qr   *QueryResponse
		code int
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, code := postQuery(t, ts, QueryRequest{
				Pattern: plugPattern(), Limit: 1 << 30, TimeoutMS: 300,
			})
			results[i] = result{qr, code}
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("member %d: status %d", i, r.code)
		}
	}
	if !results[0].qr.TimedOut {
		t.Skip("3-hop join finished within 300ms on this machine")
	}
	for i, r := range results {
		if r.qr.Shared {
			if !r.qr.TimedOut {
				t.Fatalf("member %d: shared but not timed out while the group was", i)
			}
			if !sameResult(r.qr, results[0].qr) {
				t.Fatalf("member %d: partial rows differ across the group", i)
			}
		}
		if r.qr.Count != len(r.qr.Rows) {
			t.Fatalf("member %d: count %d != %d rows", i, r.qr.Count, len(r.qr.Rows))
		}
	}
}

// TestSharedScanLeaderDisconnectShedsFollowers: when the leader's client
// disconnects while the leader is waiting for admission, the followers
// must NOT inherit the leader's 499 — their clients are still connected.
// They are shed retryably (503 + Retry-After) so a retry starts a fresh
// group with a live leader.
func TestSharedScanLeaderDisconnectShedsFollowers(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Store:         heavyStore(t),
		MaxLimit:      1 << 30,
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueWait:     5 * time.Second,
		CacheEntries:  -1,
	})
	wait := startPlug(t, ts.URL, 600)

	// The leader joins first, with a client we can hang up.
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(QueryRequest{Pattern: sharedMix()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // leader attached, waiting for admission

	// Two followers attach to the leader's group.
	type result struct {
		code    int
		retry   string
		message string
	}
	followers := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				followers <- result{code: -1, message: err.Error()}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			followers <- result{code: resp.StatusCode, retry: resp.Header.Get("Retry-After"), message: string(b)}
		}()
	}
	time.Sleep(100 * time.Millisecond) // followers attached

	cancel() // the leader's client goes away mid-admission-wait
	<-leaderDone

	for i := 0; i < 2; i++ {
		r := <-followers
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("follower %d: status %d (%s), want 503: a follower must not inherit the leader's 499",
				i, r.code, r.message)
		}
		if r.retry == "" {
			t.Errorf("follower %d: 503 without Retry-After", i)
		}
	}
	wait()

	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `reason="leader_cancelled"`) {
		t.Fatalf("metrics missing the leader_cancelled shed reason:\n%s", metrics)
	}
}
