package regmap

// Watch-layer tests: single-key subscriptions across the full key
// lifecycle (set, delete, re-create), the whole-map snapshot-delta
// stream, and a -race churn battery that runs subscribe/cancel loops
// against delete/recreate loops while checking the no-resurrection
// invariant and goroutine hygiene.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcreg/internal/notify"
)

// collectWatch runs a Watch iterator in a goroutine, forwarding events
// into a channel the test consumes with timeouts.
type watchEvent struct {
	val []byte
	err error
}

func startWatch(t *testing.T, r *Reader, ctx context.Context, key string) <-chan watchEvent {
	t.Helper()
	ch := make(chan watchEvent, 64)
	go func() {
		defer close(ch)
		for v, err := range r.Watch(ctx, key) {
			var cp []byte
			if v != nil {
				cp = append([]byte(nil), v...) // views die with the next op
			}
			ch <- watchEvent{val: cp, err: err}
		}
	}()
	return ch
}

func nextEvent(t *testing.T, ch <-chan watchEvent) watchEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch iterator ended unexpectedly")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no watch event within 10s")
	}
	panic("unreachable")
}

// TestWatchKeyLifecycle walks one key through set → update → delete →
// re-create under a parked watcher: every transition must be delivered,
// the deletion exactly once, and the re-created value must be the fresh
// incarnation's (never the deleted bytes).
func TestWatchKeyLifecycle(t *testing.T) {
	m, err := New(Config{MaxReaders: 2, MaxValueSize: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := startWatch(t, rd, ctx, "k")
	defer func() { // watcher owns the handle: stop and drain before Close
		cancel()
		for range ch {
		}
		rd.Close()
	}()

	if ev := nextEvent(t, ch); ev.err != nil || string(ev.val) != "v1" {
		t.Fatalf("first event = (%q, %v), want (v1, nil)", ev.val, ev.err)
	}
	if err := m.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, ch); ev.err != nil || string(ev.val) != "v2" {
		t.Fatalf("update event = (%q, %v), want (v2, nil)", ev.val, ev.err)
	}
	if err := m.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, ch); !errors.Is(ev.err, ErrKeyNotFound) {
		t.Fatalf("delete event = (%q, %v), want ErrKeyNotFound", ev.val, ev.err)
	}
	if err := m.Set("k", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, ch); ev.err != nil || string(ev.val) != "v3" {
		t.Fatalf("re-create event = (%q, %v), want (v3, nil) — a stale value here is a resurrection", ev.val, ev.err)
	}
	cancel()
	// The cancellation is delivered as a terminal ctx error event.
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.err != nil && !errors.Is(ev.err, ErrKeyNotFound) {
				if !errors.Is(ev.err, context.Canceled) {
					t.Fatalf("terminal event error = %v, want context.Canceled", ev.err)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatal("watch did not terminate after cancel")
		}
	}
}

// TestWatchAbsentKeyThenCreate: watching a key that does not exist
// yields the miss once, parks on the directory gate, and delivers the
// creation.
func TestWatchAbsentKeyThenCreate(t *testing.T) {
	m, err := New(Config{MaxReaders: 2, MaxValueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := startWatch(t, rd, ctx, "ghost")
	defer func() { // watcher owns the handle: stop and drain before Close
		cancel()
		for range ch {
		}
		rd.Close()
	}()
	if ev := nextEvent(t, ch); !errors.Is(ev.err, ErrKeyNotFound) {
		t.Fatalf("initial event = (%q, %v), want ErrKeyNotFound", ev.val, ev.err)
	}
	if err := m.Set("ghost", []byte("appeared")); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, ch); ev.err != nil || string(ev.val) != "appeared" {
		t.Fatalf("creation event = (%q, %v), want (appeared, nil)", ev.val, ev.err)
	}
}

// TestWatchIgnoresSiblingKeys: a parked single-key watcher is not
// obliged to wake on sibling-key traffic — and must never yield for it.
func TestWatchIgnoresSiblingKeys(t *testing.T) {
	m, err := New(Config{MaxReaders: 2, MaxValueSize: 64, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("mine", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := startWatch(t, rd, ctx, "mine")
	defer func() { // watcher owns the handle: stop and drain before Close
		cancel()
		for range ch {
		}
		rd.Close()
	}()
	if ev := nextEvent(t, ch); string(ev.val) != "v1" {
		t.Fatalf("first event = (%q, %v)", ev.val, ev.err)
	}
	// Same-shard sibling updates (shard count 1 forces co-residency).
	for i := 0; i < 100; i++ {
		if err := m.Set("other", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case ev := <-ch:
		t.Fatalf("sibling-key traffic produced event (%q, %v)", ev.val, ev.err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := m.Set("mine", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, ch); string(ev.val) != "v2" {
		t.Fatalf("own-key event = (%q, %v), want v2", ev.val, ev.err)
	}
}

// TestWatchAllDeltaStream: the snapshot-delta stream starts with a full
// snapshot and then delivers per-event creations, updates and
// deletions.
func TestWatchAllDeltaStream(t *testing.T) {
	m, err := New(Config{MaxReaders: 2, MaxValueSize: 64, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := make(chan Delta, 16)
	defer func() { // watcher owns the handle: stop and drain before Close
		cancel()
		for range events {
		}
		rd.Close()
	}()
	go func() {
		defer close(events)
		for d, err := range rd.WatchAll(ctx) {
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("WatchAll error: %v", err)
				}
				return
			}
			events <- d
		}
	}()
	next := func() Delta {
		t.Helper()
		select {
		case d, ok := <-events:
			if !ok {
				t.Fatal("WatchAll ended early")
			}
			return d
		case <-time.After(10 * time.Second):
			t.Fatal("no WatchAll event within 10s")
		}
		panic("unreachable")
	}

	d := next()
	if !d.Full || len(d.Values) != 2 || string(d.Values["a"]) != "1" || string(d.Values["b"]) != "2" {
		t.Fatalf("first event = %+v, want full snapshot {a:1 b:2}", d)
	}
	if err := m.Set("c", []byte("3")); err != nil {
		t.Fatal(err)
	}
	d = next()
	if d.Full || string(d.Values["c"]) != "3" || len(d.Deleted) != 0 {
		t.Fatalf("create event = %+v, want {c:3}", d)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	d = next()
	if len(d.Deleted) != 1 || d.Deleted[0] != "a" {
		t.Fatalf("delete event = %+v, want Deleted=[a]", d)
	}
	if err := m.Set("b", []byte("22")); err != nil {
		t.Fatal(err)
	}
	d = next()
	if string(d.Values["b"]) != "22" || len(d.Deleted) != 0 {
		t.Fatalf("update event = %+v, want {b:22}", d)
	}
}

// TestWatchChurn is the -race lifecycle battery: one writer per shard
// churns keys through set/delete/re-create while watchers subscribe,
// consume and cancel in a loop. Invariants:
//
//   - values carry a per-key monotonically increasing version; no
//     watcher may ever observe a version going backwards (a resurrected
//     value from a pre-delete incarnation would);
//   - after every context is cancelled, all watch goroutines exit
//     (checked by the leak guard below).
func TestWatchChurn(t *testing.T) {
	const (
		keys     = 4
		watchers = 8
		rounds   = 300
	)
	m, err := New(Config{MaxReaders: watchers + 1, MaxValueSize: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Writer: churn every key through versioned set/delete/recreate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		version := make([]int, keys)
		for r := 0; r < rounds && !stop.Load(); r++ {
			for k := 0; k < keys; k++ {
				key := "key-" + strconv.Itoa(k)
				version[k]++
				val := fmt.Sprintf("%d:%d", k, version[k])
				if err := m.Set(key, []byte(val)); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if r%7 == k%7 {
					if err := m.Delete(key); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}
	}()

	// Watchers: subscribe to a key, consume a few events, cancel,
	// resubscribe — checking version monotonicity across the whole run
	// (deletes yield misses; values never go backwards).
	for w := 0; w < watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd, err := m.NewReader()
			if err != nil {
				t.Errorf("NewReader: %v", err)
				return
			}
			defer rd.Close()
			key := "key-" + strconv.Itoa(w%keys)
			lastVersion := -1
			for !stop.Load() {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				consumed := 0
				for v, err := range rd.Watch(ctx, key) {
					if err != nil {
						if errors.Is(err, ErrKeyNotFound) {
							continue // deletion notification: keep watching
						}
						break // ctx deadline/cancel: resubscribe
					}
					parts := strings.SplitN(string(v), ":", 2)
					ver, convErr := strconv.Atoi(parts[1])
					if len(parts) != 2 || convErr != nil {
						t.Errorf("watcher %d: malformed value %q", w, v)
						cancel()
						return
					}
					if ver < lastVersion {
						t.Errorf("watcher %d: version regressed %d → %d (resurrected value)", w, lastVersion, ver)
						cancel()
						return
					}
					lastVersion = ver
					if consumed++; consumed >= 5 {
						break
					}
				}
				cancel()
			}
		}(w)
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Leak guard: every Watch goroutine must have exited once its
	// context died and its consumer returned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after churn: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drainTrees asserts every wakeup tree attached anywhere in the map —
// value registers, shard directories, the map-level gate — has zero
// running relays, polling briefly because relay exit is asynchronous
// after the last unsubscribe.
func drainTrees(t *testing.T, m *Map) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stuck := ""
		for si, sh := range m.shards {
			if tr := sh.dirNotify.Fanned(); tr != nil && tr.Relays() != 0 {
				stuck = fmt.Sprintf("shard %d dir tree: %d relays", si, tr.Relays())
			}
			for slot, reg := range sh.wregs {
				if reg == nil {
					continue
				}
				if tr := reg.Notifier().Gate().Fanned(); tr != nil && tr.Relays() != 0 {
					stuck = fmt.Sprintf("shard %d slot %d value tree: %d relays", si, slot, tr.Relays())
				}
			}
		}
		if tr := m.watchGate.Fanned(); tr != nil && tr.Relays() != 0 {
			stuck = fmt.Sprintf("map tree: %d relays", tr.Relays())
		}
		if stuck == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wakeup-tree relays leaked: %s", stuck)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchTreeHygieneAndLedgers drives single-key and whole-map watch
// sessions through subscribe/cancel storms while the writer side runs
// delete/recreate churn and explicit compactions — the lifecycle edges
// that rebind keys to different registers and rebase readers. Alongside
// the churn, a stats walker continuously checks every live watcher's
// ledger invariant (observed ≤ published). Afterwards every tree
// attached anywhere in the map must have zero running relays and the
// goroutine count must settle back to baseline.
func TestWatchTreeHygieneAndLedgers(t *testing.T) {
	const (
		keys     = 6
		watchers = 6
		rounds   = 150
	)
	m, err := New(Config{MaxReaders: watchers + 2, MaxValueSize: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: set/delete/recreate churn with periodic compactions —
	// compaction rebases readers while their watch sessions hold live
	// leaf subscriptions on pre-compaction registers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds && !stop.Load(); r++ {
			for k := 0; k < keys; k++ {
				key := "key-" + strconv.Itoa(k)
				if err := m.Set(key, []byte(fmt.Sprintf("%d:%d", k, r))); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if (r+k)%5 == 0 {
					if err := m.Delete(key); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
			if r%20 == 19 {
				if err := m.Compact(); err != nil {
					t.Errorf("Compact: %v", err)
					return
				}
			}
		}
	}()

	// Keyed watchers: short sessions, constant resubscription.
	for w := 0; w < watchers-1; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd, err := m.NewReader()
			if err != nil {
				t.Errorf("NewReader: %v", err)
				return
			}
			defer rd.Close()
			key := "key-" + strconv.Itoa(w%keys)
			for !stop.Load() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				for _, err := range rd.Watch(ctx, key) {
					if err != nil && !errors.Is(err, ErrKeyNotFound) {
						break
					}
				}
				cancel()
			}
		}(w)
	}

	// One whole-map watcher churning WatchAll sessions (the map-level
	// tree's subscribe/drain cycle).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd, err := m.NewReader()
		if err != nil {
			t.Errorf("NewReader: %v", err)
			return
		}
		defer rd.Close()
		for !stop.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
			for _, err := range rd.WatchAll(ctx) {
				if err != nil {
					break
				}
			}
			cancel()
		}
	}()

	// Ledger walker: the observed ≤ published invariant must hold in
	// every concurrent snapshot of every live watcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			m.WatchTracker().Each(func(ws *notify.WatchStats) {
				if o, p := ws.Observed(), ws.Published(); o > p {
					t.Errorf("ledger inverted: observed %d > published %d", o, p)
				}
			})
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	drainTrees(t, m)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after tree churn: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
