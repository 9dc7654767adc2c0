package arc

import (
	"context"
	"testing"
	"time"

	"arcreg/internal/notify"
	"arcreg/internal/register"
)

// TestWatchZeroRMWIdle pins the tentpole cost claim at the register
// level: with no waiter parked, the publication sequencer adds zero RMW
// instructions and zero allocations to Write. WriteStats.RMW counts
// every RMW the write path executes — exactly one per write (the W2
// swap) means the notify hook added none — and the gate must stay
// uninstalled: the publisher never allocates one, and neither do the
// read-only Stats probes (a gate is the first waiter's to install).
func TestWatchZeroRMWIdle(t *testing.T) {
	r, err := New(register.Config{MaxReaders: 4, MaxValueSize: 64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("payload")
	const writes = 1000
	base := r.WriteStats()
	for i := 0; i < writes; i++ {
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
	}
	st := r.WriteStats()
	if got := st.RMW - base.RMW; got != writes {
		t.Errorf("no-waiter Write executed %d RMW over %d writes, want exactly %d (the W2 swap only)",
			got, writes, writes)
	}
	r.Stats()
	r.Notifier().Stats()
	if g := r.Notifier().Gated(); g != nil {
		t.Errorf("no-waiter writes or Stats installed a gate (armed %v)", g.Armed())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("no-waiter Write allocates %.1f objects/op, want 0", allocs)
	}
	if e := r.Notifier().Epoch(); e == 0 {
		t.Error("sequencer epoch did not advance with the writes")
	}
}

// TestWatchStormRMWBitIdentical is the wakeup-storm guard: the
// publisher's instrumented RMW trace over a run of writes must be
// BIT-IDENTICAL with zero watchers and with 100k watchers subscribed
// and armed through the gate's wakeup tree. The 100k population is
// built without 100k goroutines — each subscription's leaf gate is
// armed directly (Arm is exactly what a parked watcher does before
// blocking), so the writer faces fully armed wakeup state at every
// publish. Any publisher-side cost that scaled with the audience —
// a per-watcher RMW, an O(watchers) close attributed to an
// instrumented atomic — would break the equality.
func TestWatchStormRMWBitIdentical(t *testing.T) {
	const writes = 200
	watchers := 100_000
	if testing.Short() {
		watchers = 10_000
	}
	val := []byte("payload")

	run := func(subs int) (rmw uint64) {
		r, err := New(register.Config{MaxReaders: 4, MaxValueSize: 64}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tree := r.Notifier().Fan(32, 2) // 1024 leaves
		held := make([]*notify.Sub, 0, subs)
		for i := 0; i < subs; i++ {
			sub := tree.Subscribe()
			sub.Gate().Arm()
			held = append(held, sub)
		}
		base := r.WriteStats()
		for i := 0; i < writes; i++ {
			if err := r.Write(val); err != nil {
				t.Fatal(err)
			}
		}
		st := r.WriteStats()
		for _, sub := range held {
			sub.Close()
		}
		return st.RMW - base.RMW
	}

	idle := run(0)
	stormed := run(watchers)
	if idle != stormed {
		t.Errorf("publisher RMW not bit-identical: %d with 0 watchers vs %d with %d armed watchers",
			idle, stormed, watchers)
	}
	if idle != writes {
		t.Errorf("baseline RMW = %d over %d writes, want exactly %d (the W2 swap only)",
			idle, writes, writes)
	}
}

// TestNotifierWaitObservesWrite: a waiter parked on the register's
// sequencer wakes on Write and then reads the new value.
func TestNotifierWaitObservesWrite(t *testing.T) {
	r, err := New(register.Config{MaxReaders: 1, MaxValueSize: 64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.NewReaderHandle()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.View(); err != nil { // prime the handle
		t.Fatal(err)
	}
	seq := r.Notifier()
	seen := seq.Epoch()
	got := make(chan string, 1)
	go func() {
		if _, err := seq.Wait(context.Background(), seen); err != nil {
			t.Errorf("Wait: %v", err)
			return
		}
		v, err := rd.View()
		if err != nil {
			t.Errorf("View after wake: %v", err)
			return
		}
		got <- string(v)
	}()
	for i := 0; i < 1000 && !seq.Gate().Armed(); i++ {
		time.Sleep(10 * time.Microsecond)
	}
	if err := r.Write([]byte("woken")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "woken" {
			t.Fatalf("woken reader saw %q, want %q", v, "woken")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke on Write")
	}
}
