package notify

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitSeesPublish: a waiter parked on an old epoch is woken by
// Publish and observes the advanced epoch.
func TestWaitSeesPublish(t *testing.T) {
	var s Sequencer
	seen := s.Epoch()
	done := make(chan uint64, 1)
	go func() {
		e, err := s.Wait(context.Background(), seen)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		done <- e
	}()
	// Let the waiter park (best effort; the protocol is correct either
	// way — this just makes the test exercise the parked path often).
	for i := 0; i < 1000 && !s.Gate().Armed(); i++ {
		time.Sleep(10 * time.Microsecond)
	}
	s.Publish()
	select {
	case e := <-done:
		if e != 1 {
			t.Fatalf("woken at epoch %d, want 1", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after Publish")
	}
}

// TestWaitImmediateWhenStale: Wait on an already-stale epoch returns
// without parking.
func TestWaitImmediateWhenStale(t *testing.T) {
	var s Sequencer
	s.Publish()
	s.Publish()
	e, err := s.Wait(context.Background(), 0)
	if err != nil || e != 2 {
		t.Fatalf("Wait(stale) = (%d, %v), want (2, nil)", e, err)
	}
	if s.Gate().Armed() {
		t.Error("stale Wait left the gate armed")
	}
}

// TestWaitContextCancel: a parked waiter is released by context
// cancellation with ctx.Err().
func TestWaitContextCancel(t *testing.T) {
	var s Sequencer
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Wait(ctx, s.Epoch())
		done <- err
	}()
	for i := 0; i < 1000 && !s.Gate().Armed(); i++ {
		time.Sleep(10 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Wait returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
}

// TestPublishIdleNoAllocNoArm pins the writer-side fast-path claim: a
// Publish with no waiter parked allocates nothing and leaves the gate
// unarmed (the RMW-freeness is structural — Publish is a plain store
// plus gate loads — and is cross-checked at the register level by
// arc's TestWatchZeroRMWIdle).
func TestPublishIdleNoAllocNoArm(t *testing.T) {
	var s Sequencer
	allocs := testing.AllocsPerRun(1000, func() { s.Publish() })
	if allocs != 0 {
		t.Errorf("idle Publish allocates %.1f objects/op, want 0", allocs)
	}
	if s.Gated() != nil {
		t.Error("idle Publish installed a gate")
	}
}

// TestWatchGateInstallRace races the lazy gate install against a
// publish. Each round's waiters make a fresh Sequencer's first Wait —
// one installs the gate, the rest join it or lose the install CAS —
// while one Publish runs. Every waiter must return: a publisher whose
// gate-pointer load missed the install stored the epoch before the
// installing waiter's recheck loaded it (DESIGN.md §8.2). Run it with
// -race -count=10: a publisher that loads the gate pointer before
// storing the epoch loses wakeups within a few instructions' window,
// which the race detector's instrumentation widens enough to hit.
func TestWatchGateInstallRace(t *testing.T) {
	const rounds, waiters = 2000, 4
	for r := 0; r < rounds; r++ {
		var s Sequencer
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := make(chan struct{})
		errs := make(chan error, waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				<-start
				_, err := s.Wait(ctx, 0)
				errs <- err
			}()
		}
		close(start)
		if r%2 == 0 {
			runtime.Gosched() // let some waiters get ahead of the publish
		}
		s.Publish()
		for i := 0; i < waiters; i++ {
			if err := <-errs; err != nil {
				cancel()
				t.Fatalf("round %d: waiter missed the racing publish (lost wakeup): %v", r, err)
			}
		}
		cancel()
	}
}

// TestNoLostWakeupStress hammers the arm/recheck/publish protocol: a
// publisher advances the epoch while a waiter repeatedly waits for the
// next epoch. Every epoch advance must be observed (at-least-once,
// conflated): the waiter's observed epoch must reach the final count.
func TestNoLostWakeupStress(t *testing.T) {
	const rounds = 20000
	var s Sequencer
	var observed atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var seen uint64
		for seen < rounds {
			e, err := s.Wait(context.Background(), seen)
			if err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			if e < seen {
				t.Errorf("epoch regressed: %d after %d", e, seen)
				return
			}
			seen = e
			observed.Store(seen)
		}
	}()
	for i := 0; i < rounds; i++ {
		s.Publish()
		if i%64 == 0 {
			time.Sleep(time.Microsecond) // let the waiter park sometimes
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("waiter stuck at epoch %d of %d — lost wakeup", observed.Load(), rounds)
	}
}

// TestBroadcastWakesCohort: many waiters parked on one gate all wake on
// a single Publish.
func TestBroadcastWakesCohort(t *testing.T) {
	const waiters = 32
	var s Sequencer
	var wg sync.WaitGroup
	var woke atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Wait(context.Background(), 0); err == nil {
				woke.Add(1)
			}
		}()
	}
	for i := 0; i < 1000 && !s.Gate().Armed(); i++ {
		time.Sleep(10 * time.Microsecond)
	}
	s.Publish()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d waiters woke", woke.Load(), waiters)
	}
	if woke.Load() != waiters {
		t.Fatalf("%d/%d waiters woke", woke.Load(), waiters)
	}
}

// TestGateChainWakesParent: publishing through a chained sequencer
// wakes waiters parked on the parent gate — the (M,N)/map composition
// shape, with the waiter's predicate reading the component epochs.
func TestGateChainWakesParent(t *testing.T) {
	var parent Gate
	comps := make([]*Sequencer, 4)
	for i := range comps {
		comps[i] = new(Sequencer)
		comps[i].Chain(&parent)
	}
	sum := func() uint64 {
		var n uint64
		for _, c := range comps {
			n += c.Epoch()
		}
		return n
	}
	seen := sum()
	done := make(chan error, 1)
	go func() {
		done <- Await(context.Background(), func() bool { return sum() != seen }, &parent)
	}()
	for i := 0; i < 1000 && !parent.Armed(); i++ {
		time.Sleep(10 * time.Microsecond)
	}
	comps[2].Publish()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Await: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parent-gate waiter never woke on component publish")
	}
}

// TestAwaitTwoGates: a waiter parked on two gates wakes when either
// one's publisher fires — the keyed-watch shape (value gate + directory
// gate).
func TestAwaitTwoGates(t *testing.T) {
	for fire := 0; fire < 2; fire++ {
		var a, b Sequencer
		seqs := [2]*Sequencer{&a, &b}
		changed := func() bool { return a.Epoch()+b.Epoch() != 0 }
		done := make(chan error, 1)
		go func() {
			done <- Await(context.Background(), changed, a.Gate(), b.Gate())
		}()
		for i := 0; i < 1000 && !seqs[fire].Gate().Armed(); i++ {
			time.Sleep(10 * time.Microsecond)
		}
		seqs[fire].Publish()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Await (gate %d): %v", fire, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("two-gate waiter never woke on gate %d", fire)
		}
	}
	// A satisfied predicate returns without arming either gate.
	a, b := new(Gate), new(Gate)
	if err := Await(context.Background(), func() bool { return true }, a, b); err != nil {
		t.Fatalf("Await immediate: %v", err)
	}
	if a.Armed() || b.Armed() {
		t.Error("immediate Await left a gate armed")
	}
}

// TestAwaitGateCountPanics pins the documented 1-or-2-gates contract:
// zero gates could never wake, and no composition parks on three.
func TestAwaitGateCountPanics(t *testing.T) {
	for _, n := range []int{0, 3} {
		gates := make([]*Gate, n)
		for i := range gates {
			gates[i] = new(Gate)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Await(%d gates) did not panic", n)
				}
			}()
			_ = Await(context.Background(), func() bool { return true }, gates...)
		}()
	}
}

// BenchmarkPublishIdle measures the no-waiter publish path (the cost
// added to every register write): expect a handful of ns, 0 allocs.
func BenchmarkPublishIdle(b *testing.B) {
	var s Sequencer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Publish()
	}
}

// BenchmarkPublishChainedIdle is the same with a parent gate in the
// chain (the regmap shard shape): one extra load.
func BenchmarkPublishChainedIdle(b *testing.B) {
	var parent Gate
	var s Sequencer
	s.Chain(&parent)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Publish()
	}
}
