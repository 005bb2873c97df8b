package wcoring

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestCrashRecovery is the durability acceptance test: it SIGKILLs a
// live ringserve at randomized points during synchronous write bursts —
// landing kills mid-group-commit, mid-compaction, mid-checkpoint, and
// mid-recovery — then restarts against the same data directory and
// checks two invariants across every iteration:
//
//  1. every batch acknowledged with HTTP 200 (fsynced) is fully present
//     after recovery, and
//  2. every batch, acked or not, is atomic: all of its triples are
//     visible or none are (one batch = one WAL record).
//
// Each batch uses a unique predicate, so presence is one count query.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness is slow")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not found")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "ringserve")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/ringserve")
	build.Dir = mustModuleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ringserve: %v\n%s", err, out)
	}

	dataDir := filepath.Join(tmp, "data")
	const (
		kills     = 22 // randomized kill points (acceptance floor is 20)
		batchSize = 5
		writers   = 2
	)
	rng := rand.New(rand.NewSource(4242))

	type batchID struct{ iter, writer, seq int }
	pred := func(b batchID) string { return fmt.Sprintf("b%dw%dk%d", b.iter, b.writer, b.seq) }
	var mu sync.Mutex
	acked := map[batchID]bool{} // got HTTP 200: durable, must survive
	sent := map[batchID]bool{}  // attempted: must be atomic either way

	client := &http.Client{Timeout: 5 * time.Second}
	countPred := func(base, p string) (int, error) {
		body, _ := json.Marshal(map[string]any{
			"pattern":  []map[string]string{{"s": "?s", "p": p, "o": "?o"}},
			"limit":    batchSize + 10,
			"no_cache": true,
		})
		resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return 0, fmt.Errorf("query %s: status %d: %s", p, resp.StatusCode, b)
		}
		var qr struct {
			Count int `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return 0, err
		}
		return qr.Count, nil
	}

	freePort := func() int {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		return port
	}

	start := func(iter int) (*exec.Cmd, string) {
		port := freePort()
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.Command(bin,
			"-data-dir", dataDir,
			"-addr", addr,
			"-memtable", "16", // small: kills land mid-flush/merge/checkpoint
			"-max-rings", "2",
		)
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("iteration %d: starting ringserve: %v", iter, err)
		}
		base := "http://" + addr
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatalf("iteration %d: ringserve never became ready", iter)
			}
			if cmd.ProcessState != nil {
				t.Fatalf("iteration %d: ringserve exited during startup", iter)
			}
			resp, err := client.Get(base + "/readyz")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if ok {
					return cmd, base
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// verify checks the batch invariants; onlyIter restricts the sweep to
	// one iteration's batches (each restart re-checks the burst that was
	// interrupted; the final pass, with onlyIter = -1, audits everything).
	verify := func(iter int, base string, onlyIter int) {
		mu.Lock()
		toCheck := make([]batchID, 0, len(sent))
		for b := range sent {
			if onlyIter < 0 || b.iter == onlyIter {
				toCheck = append(toCheck, b)
			}
		}
		mu.Unlock()
		lost, torn := 0, 0
		for _, b := range toCheck {
			n, err := countPred(base, pred(b))
			if err != nil {
				t.Fatalf("iteration %d: verify %v: %v", iter, b, err)
			}
			mu.Lock()
			wasAcked := acked[b]
			mu.Unlock()
			if wasAcked && n != batchSize {
				lost++
				t.Errorf("iteration %d: ACKED batch %v has %d/%d triples after recovery", iter, b, n, batchSize)
			}
			if n != 0 && n != batchSize {
				torn++
				t.Errorf("iteration %d: batch %v is torn: %d/%d triples visible", iter, b, n, batchSize)
			}
		}
		if lost > 0 || torn > 0 {
			t.Fatalf("iteration %d: %d acked batches lost, %d batches torn", iter, lost, torn)
		}
	}

	for iter := 0; iter < kills; iter++ {
		cmd, base := start(iter)
		verify(iter, base, iter-1)

		// Write burst: concurrent sync inserts so kills land inside group
		// commits; each writer records its acks.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seq := 0; ; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					b := batchID{iter: iter, writer: w, seq: seq}
					ts := make([]map[string]string, batchSize)
					for j := range ts {
						ts[j] = map[string]string{
							"s": fmt.Sprintf("s%d-%d-%d", iter, w, j),
							"p": pred(b),
							"o": fmt.Sprintf("o%d", j),
						}
					}
					body, _ := json.Marshal(map[string]any{"triples": ts})
					mu.Lock()
					sent[b] = true
					mu.Unlock()
					resp, err := client.Post(base+"/insert", "application/json", bytes.NewReader(body))
					if err != nil {
						return // killed mid-request: unacked, atomicity still checked
					}
					code := resp.StatusCode
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if code == http.StatusOK {
						mu.Lock()
						acked[b] = true
						mu.Unlock()
					}
				}
			}(w)
		}

		time.Sleep(time.Duration(10+rng.Intn(190)) * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("iteration %d: SIGKILL: %v", iter, err)
		}
		close(stop)
		wg.Wait()
		cmd.Wait() // reap; exit status is irrelevant after SIGKILL
	}

	// Final recovery and full audit of every batch ever sent.
	cmd, base := start(kills)
	verify(kills, base, -1)
	mu.Lock()
	nAcked, nSent := len(acked), len(sent)
	mu.Unlock()
	if nAcked == 0 {
		t.Fatal("no batch was ever acked; the harness never exercised durability")
	}
	t.Logf("crash harness: %d kills, %d batches sent, %d acked, 0 lost, 0 torn", kills, nSent, nAcked)
	cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan struct{})
	go func() { cmd.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		<-waited
	}
	if _, err := os.Stat(filepath.Join(dataDir, "MANIFEST")); err != nil {
		t.Errorf("no MANIFEST after graceful shutdown: %v", err)
	}
}

// TestReplCrashConvergence is the replication acceptance test: a leader
// and a follower run as real processes, the leader takes synchronous
// write bursts, and at randomized points the harness SIGKILLs the leader
// (mid-WAL-stream) on even iterations and the follower (mid-apply) on
// odd ones. After each kill the victim restarts against its own data
// directory and the pair must reconverge:
//
//  1. every batch acked by the leader (HTTP 200 = fsynced) is present on
//     BOTH nodes after recovery — the stream ships only durable records,
//     so a leader crash can never retract bytes a follower holds, and
//  2. the full triple sets of leader and follower become identical.
//
// The write volume stays under the memtable flush threshold so the
// leader never checkpoints past a down follower's resume point (WAL
// history retention across checkpoints is a non-goal; a parked follower
// re-bootstraps instead).
func TestReplCrashConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("replication crash harness is slow")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not found")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "ringserve")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/ringserve")
	build.Dir = mustModuleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ringserve: %v\n%s", err, out)
	}

	const (
		kills      = 8
		batchSize  = 5
		writers    = 2
		maxBatches = 40 // per writer per iteration: keeps total < memtable threshold
	)
	rng := rand.New(rand.NewSource(1337))
	leaderDir := filepath.Join(tmp, "leader")
	followerDir := filepath.Join(tmp, "follower")

	freePort := func() int {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		return port
	}
	leaderAddr := fmt.Sprintf("127.0.0.1:%d", freePort())
	replAddr := fmt.Sprintf("127.0.0.1:%d", freePort())
	followerAddr := fmt.Sprintf("127.0.0.1:%d", freePort())
	leaderBase := "http://" + leaderAddr
	followerBase := "http://" + followerAddr

	client := &http.Client{Timeout: 5 * time.Second}
	waitReady := func(base, role string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("%s never became ready", role)
			}
			resp, err := client.Get(base + "/readyz")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if ok {
					return
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	startLeader := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-data-dir", leaderDir,
			"-addr", leaderAddr,
			"-repl-listen", replAddr,
		)
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting leader: %v", err)
		}
		waitReady(leaderBase, "leader")
		return cmd
	}
	startFollower := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-data-dir", followerDir,
			"-addr", followerAddr,
			"-follow", replAddr,
		)
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting follower: %v", err)
		}
		waitReady(followerBase, "follower")
		return cmd
	}

	dump := func(base string) ([][3]string, error) {
		body, _ := json.Marshal(map[string]any{
			"pattern":  []map[string]string{{"s": "?s", "p": "?p", "o": "?o"}},
			"limit":    100000,
			"no_cache": true,
		})
		resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("dump: status %d: %s", resp.StatusCode, b)
		}
		var qr struct {
			Vars []string   `json:"vars"`
			Rows [][]string `json:"rows"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(qr.Vars, []string{"s", "p", "o"}) {
			return nil, fmt.Errorf("dump: columns %v, want [s p o]", qr.Vars)
		}
		out := make([][3]string, len(qr.Rows))
		for i, row := range qr.Rows {
			out[i] = [3]string{row[0], row[1], row[2]}
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			if a[1] != b[1] {
				return a[1] < b[1]
			}
			return a[2] < b[2]
		})
		return out, nil
	}
	waitConverged := func(iter int) {
		deadline := time.Now().Add(60 * time.Second)
		var lastErr error
		for time.Now().Before(deadline) {
			ld, err1 := dump(leaderBase)
			fd, err2 := dump(followerBase)
			if err1 == nil && err2 == nil {
				lb, _ := json.Marshal(ld)
				fb, _ := json.Marshal(fd)
				if bytes.Equal(lb, fb) {
					return
				}
				lastErr = fmt.Errorf("leader %d triples, follower %d triples", len(ld), len(fd))
			} else if err1 != nil {
				lastErr = err1
			} else {
				lastErr = err2
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("iteration %d: leader and follower never converged: %v", iter, lastErr)
	}

	type batchID struct{ iter, writer, seq int }
	pred := func(b batchID) string { return fmt.Sprintf("r%dw%dk%d", b.iter, b.writer, b.seq) }
	var mu sync.Mutex
	acked := map[batchID]bool{}

	countPred := func(base, p string) (int, error) {
		body, _ := json.Marshal(map[string]any{
			"pattern":  []map[string]string{{"s": "?s", "p": p, "o": "?o"}},
			"limit":    batchSize + 10,
			"no_cache": true,
		})
		resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return 0, fmt.Errorf("query %s: status %d: %s", p, resp.StatusCode, b)
		}
		var qr struct {
			Count int `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return 0, err
		}
		return qr.Count, nil
	}

	leader := startLeader()
	follower := startFollower()

	for iter := 0; iter < kills; iter++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seq := 0; seq < maxBatches; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					b := batchID{iter: iter, writer: w, seq: seq}
					ts := make([]map[string]string, batchSize)
					for j := range ts {
						ts[j] = map[string]string{
							"s": fmt.Sprintf("rs%d-%d-%d", iter, w, j),
							"p": pred(b),
							"o": fmt.Sprintf("o%d", j),
						}
					}
					body, _ := json.Marshal(map[string]any{"triples": ts})
					resp, err := client.Post(leaderBase+"/insert", "application/json", bytes.NewReader(body))
					if err != nil {
						return // leader killed mid-request: unacked
					}
					code := resp.StatusCode
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if code == http.StatusOK {
						mu.Lock()
						acked[b] = true
						mu.Unlock()
					}
				}
			}(w)
		}

		time.Sleep(time.Duration(5+rng.Intn(55)) * time.Millisecond)
		killLeader := iter%2 == 0
		var victim *exec.Cmd
		if killLeader {
			victim = leader
		} else {
			victim = follower
		}
		if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("iteration %d: SIGKILL: %v", iter, err)
		}
		close(stop)
		wg.Wait()
		victim.Wait() // reap; exit status is irrelevant after SIGKILL
		if killLeader {
			leader = startLeader()
		} else {
			follower = startFollower()
		}

		waitConverged(iter)
		mu.Lock()
		toCheck := make([]batchID, 0, len(acked))
		for b := range acked {
			if b.iter == iter {
				toCheck = append(toCheck, b)
			}
		}
		mu.Unlock()
		for _, b := range toCheck {
			for _, node := range []struct{ name, base string }{{"leader", leaderBase}, {"follower", followerBase}} {
				n, err := countPred(node.base, pred(b))
				if err != nil {
					t.Fatalf("iteration %d: verify %v on %s: %v", iter, b, node.name, err)
				}
				if n != batchSize {
					t.Errorf("iteration %d: ACKED batch %v has %d/%d triples on %s", iter, b, n, batchSize, node.name)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	mu.Lock()
	nAcked := len(acked)
	mu.Unlock()
	if nAcked == 0 {
		t.Fatal("no batch was ever acked; the harness never exercised replication")
	}
	t.Logf("replication crash harness: %d kills, %d acked batches, converged every time", kills, nAcked)

	for _, node := range []struct {
		name string
		cmd  *exec.Cmd
		dir  string
	}{{"follower", follower, followerDir}, {"leader", leader, leaderDir}} {
		node.cmd.Process.Signal(syscall.SIGTERM)
		waited := make(chan struct{})
		go func(c *exec.Cmd) { c.Wait(); close(waited) }(node.cmd)
		select {
		case <-waited:
		case <-time.After(20 * time.Second):
			node.cmd.Process.Kill()
			<-waited
		}
		if _, err := os.Stat(filepath.Join(node.dir, "MANIFEST")); err != nil {
			t.Errorf("no MANIFEST in %s dir after graceful shutdown: %v", node.name, err)
		}
	}
}
