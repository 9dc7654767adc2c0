package serve

// The serving-layer guard tests, continuing the PR 7 discipline: the
// acceptance claims ("a steady-state GET performs 0 RMW on the
// register read", "the response path is 0 alloc for an unchanged
// value", "slow streams conflate instead of buffering") are pinned by
// tests, not prose.

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"arcreg/internal/fault"
	"arcreg/internal/regmap"
)

// TestServeHotGetZeroRMW drives real HTTP GETs of an unchanged key
// through a 1-reader pool and asserts — via the ReadStats deltas the
// pool folds in at release time — that the register reads behind them
// executed zero RMW instructions and all rode the fast path. This is
// the wire-level restatement of the paper's R1–R2 claim: the network
// edge adds syscalls, but not contention on the register. A changed-
// value leg then pins the fold-in off the fast path: each GET after a
// Set must add exactly ARC's 2 RMW, so a fold that dropped slow-path
// RMW cannot pass on the zero-RMW leg alone.
func TestServeHotGetZeroRMW(t *testing.T) {
	s, ts := newTestServer(t, regmap.Config{Shards: 1, MaxReaders: 4}, Config{Readers: 1, WatchStreams: 2})
	c := ts.Client()
	if err := s.Set("hot", []byte("steady")); err != nil {
		t.Fatal(err)
	}
	// Warm: the first Get decodes the directory and the value; the
	// second proves freshness. Two requests through the single pooled
	// handle leave it steady for the key.
	for i := 0; i < 3; i++ {
		if resp, _ := doReq(t, c, "GET", ts.URL+"/k/hot", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm GET: status %d", resp.StatusCode)
		}
	}
	before := s.Stats()
	bOps, _ := before.Get("read_ops")
	bFast, _ := before.Get("read_fastpath")
	bRMW, _ := before.Get("read_rmw")

	const n = 64
	for i := 0; i < n; i++ {
		resp, body := doReq(t, c, "GET", ts.URL+"/k/hot", nil)
		if resp.StatusCode != http.StatusOK || string(body) != "steady" {
			t.Fatalf("GET %d: status %d body %q", i, resp.StatusCode, body)
		}
	}
	after := s.Stats()
	aOps, _ := after.Get("read_ops")
	aFast, _ := after.Get("read_fastpath")
	aRMW, _ := after.Get("read_rmw")

	if got := aRMW - bRMW; got != 0 {
		t.Fatalf("steady-state GETs executed %d RMW on the register read, want 0", got)
	}
	if got := aOps - bOps; got < n {
		t.Fatalf("read_ops advanced %d, want >= %d", got, n)
	}
	if got := aFast - bFast; got < n {
		t.Fatalf("read_fastpath advanced %d, want >= %d (every unchanged GET must ride the fast path)", got, n)
	}

	// Changed values: the GET after each Set re-acquires the key's slot
	// — exactly ARC's 2 RMW, off the fast path — and the release-time
	// fold-in must carry both.
	for i := 0; i < 8; i++ {
		want := fmt.Sprintf("v%d", i)
		if err := s.Set("hot", []byte(want)); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		resp, body := doReq(t, c, "GET", ts.URL+"/k/hot", nil)
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("GET after Set %d: status %d body %q, want %q", i, resp.StatusCode, body, want)
		}
		after := s.Stats()
		for name, wantDelta := range map[string]uint64{"read_rmw": 2, "read_fastpath": 0} {
			b, _ := before.Get(name)
			a, _ := after.Get(name)
			if a-b != wantDelta {
				t.Fatalf("GET after Set %d: %s advanced %d, want %d", i, name, a-b, wantDelta)
			}
		}
	}
}

// nullRW is a reusable ResponseWriter: a persistent header map and a
// discarding body, so AllocsPerRun measures only the serving path.
type nullRW struct {
	h http.Header
	n int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullRW) WriteHeader(int)             {}

// TestServeResponsePathZeroAlloc pins the hot GET response path —
// wait-free read, header assign, view write — at zero allocations per
// request for an unchanged value. net/http's connection machinery
// allocates around it; the serving path itself must not add to that.
func TestServeResponsePathZeroAlloc(t *testing.T) {
	m, err := regmap.New(regmap.Config{Shards: 1, MaxReaders: 2, MaxValueSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Map: m, Readers: 1, WatchStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Set("hot", []byte("unchanged value bytes")); err != nil {
		t.Fatal(err)
	}
	c := <-s.pool
	defer func() { s.pool <- c }()
	w := &nullRW{h: make(http.Header)}
	s.writeKeyValue(w, c, "hot") // warm: first Get decodes
	if w.n == 0 {
		t.Fatal("warm write produced no body")
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.writeKeyValue(w, c, "hot")
	})
	if allocs != 0 {
		t.Fatalf("hot GET response path allocates %.1f/op, want 0", allocs)
	}
}

// TestServeSlowClientConflation is the ledger-backed backpressure
// test: a deliberately slow SSE client (stall injection on every
// event write — the serve/slow-client point) against a back-to-back
// in-process writer. The stream must conflate (deliveries < publishes,
// conflated > 0 in the watcher ledger), lag must stay bounded by the
// published count, and server memory must stay flat — the server
// buffers nothing per client.
func TestServeSlowClientConflation(t *testing.T) {
	sched, err := fault.NewSchedule(42,
		fault.Rule{Point: FaultSlowClient, Kind: fault.Stall, Every: 1, Stall: 2 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, regmap.Config{Shards: 1, MaxReaders: 6}, Config{Readers: 2, WatchStreams: 2})
	c := ts.Client()
	if err := s.Set("storm", []byte("v0")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	br, closeBody := openSSE(t, ctx, c, ts.URL+"/watch/storm")
	defer closeBody()
	if _, err := readSSE(br); err != nil { // initial value
		t.Fatal(err)
	}

	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	sched.Arm()
	stop := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		buf := make([]byte, 64)
		var writes uint64
		for {
			select {
			case <-stop:
				done <- writes
				return
			default:
			}
			buf[0] = byte(writes)
			if err := s.Set("storm", buf); err != nil {
				t.Error(err)
				done <- writes
				return
			}
			writes++
		}
	}()
	// Drain the slow stream for a fixed window; every frame costs a
	// 2ms injected stall on the server side, so the writer laps the
	// stream thousands of times over.
	drained := 0
	windowEnd := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(windowEnd) {
		if _, err := readSSE(br); err != nil {
			t.Fatalf("stream died mid-storm: %v", err)
		}
		drained++
	}
	close(stop)
	writes := <-done
	sched.Disarm()

	if drained == 0 || writes == 0 {
		t.Fatalf("storm produced nothing: drained=%d writes=%d", drained, writes)
	}
	// The live ledger: conflation happened, and lag is bounded by what
	// was actually published (the invariant observed ≤ published caps
	// it structurally; assert it directly too).
	sn := s.Stats()
	conflated, _ := sn.Get("watch_conflated")
	lagMax, _ := sn.Get("watch_lag_max")
	if conflated == 0 {
		t.Fatalf("slow stream conflated nothing across %d writes (%d drained)", writes, drained)
	}
	if lagMax > writes+1 {
		t.Fatalf("lag_max %d exceeds published %d", lagMax, writes)
	}
	if uint64(drained) >= writes {
		t.Fatalf("slow stream drained %d >= %d writes — no conflation pressure generated", drained, writes)
	}

	// Memory flat: the server held no per-client backlog. The bound is
	// generous (the test process itself churns), but an unbounded
	// per-event queue at thousands of skipped publications would blow
	// far past it.
	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	const memSlack = 8 << 20
	if msAfter.HeapAlloc > msBefore.HeapAlloc+memSlack {
		t.Fatalf("heap grew %d bytes across the storm (before %d, after %d) — slow client buffered?",
			msAfter.HeapAlloc-msBefore.HeapAlloc, msBefore.HeapAlloc, msAfter.HeapAlloc)
	}
}
