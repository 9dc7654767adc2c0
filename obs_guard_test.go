package arcreg_test

// Guard tests for the observability tentpole's zero-overhead contract:
// recording telemetry must not add RMW instructions or allocations to
// the hot paths it observes. The RMW guards run WITH a live Stats
// poller hammering the tree concurrently — collection is walker-side
// work, so the observed paths' RMW counts must not move. The
// allocation guards run WITHOUT concurrent pollers: AllocsPerRun
// measures process-global allocation, so a concurrently allocating
// goroutine would charge its garbage to the measured op.

import (
	"context"
	"sync"
	"testing"

	"arcreg"
)

// guardReg builds a warmed (1,N) ARC register with one reader in the
// steady state (value read once, unchanged since).
func guardReg(t testing.TB) (*arcreg.Reg[[]byte], *arcreg.TypedReader[[]byte]) {
	t.Helper()
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(2),
		arcreg.WithMaxValueSize(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Set(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	if _, err := rd.Get(); err != nil {
		t.Fatal(err)
	}
	return reg, rd
}

// statsPoller walks the register's Stats tree in a tight loop until the
// returned stop function is called — the adversarial collector the RMW
// guards run against. It blocks until the first walk completes so the
// caller's hot loop is guaranteed to overlap live collection.
func statsPoller(reg *arcreg.Reg[[]byte]) (stop func() uint64) {
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan struct{})
	var walks uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			sn := reg.Stats()
			if sn.Name == "" {
				panic("empty stats root")
			}
			if walks++; walks == 1 {
				close(first)
			}
		}
	}()
	<-first
	return func() uint64 {
		cancel()
		wg.Wait()
		return walks
	}
}

// TestGuardHotGetZeroRMW pins the paper's headline claim through the
// full telemetry stack: steady-state Get executes zero RMW
// instructions even while a concurrent poller snapshots the Stats tree
// on every walk.
func TestGuardHotGetZeroRMW(t *testing.T) {
	reg, rd := guardReg(t)
	stop := statsPoller(reg)
	const ops = 20000
	before := rd.ReadStats()
	for i := 0; i < ops; i++ {
		if _, err := rd.Get(); err != nil {
			t.Fatal(err)
		}
	}
	after := rd.ReadStats()
	walks := stop()
	if walks == 0 {
		t.Fatal("stats poller never walked the tree")
	}
	if d := after.RMW - before.RMW; d != 0 {
		t.Errorf("steady-state Get executed %d RMW instructions over %d ops under a live Stats poller", d, ops)
	}
	if d := after.FastPath - before.FastPath; d != ops {
		t.Errorf("fast-path reads = %d, want %d (every steady Get must take R1-R2)", d, ops)
	}
}

// TestGuardHotSetRMWUnchangedByStats pins that a concurrent Stats
// poller adds no RMW to the write path: the uncontended writer's
// RMW-per-op is identical with and without the poller. (The write path
// has its own inherent RMW budget; the guard is that observation does
// not move it.)
func TestGuardHotSetRMWUnchangedByStats(t *testing.T) {
	const ops = 5000
	perOp := func(poll bool) uint64 {
		reg, rd := guardReg(t)
		defer rd.Close()
		w, err := reg.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, 1024)
		if err := w.Set(val); err != nil { // settle the slot scan
			t.Fatal(err)
		}
		var stop func() uint64
		if poll {
			stop = statsPoller(reg)
		}
		before := w.WriteStats()
		for i := 0; i < ops; i++ {
			if err := w.Set(val); err != nil {
				t.Fatal(err)
			}
		}
		after := w.WriteStats()
		if poll {
			if stop() == 0 {
				t.Fatal("stats poller never walked the tree")
			}
		}
		return after.RMW - before.RMW
	}
	quiet := perOp(false)
	observed := perOp(true)
	if observed != quiet {
		t.Errorf("write RMW over %d ops moved under a live Stats poller: %d quiet, %d observed",
			ops, quiet, observed)
	}
}

// TestGuardHotGetZeroAlloc pins zero allocations on the steady-state
// read with telemetry compiled in. No concurrent poller: AllocsPerRun
// is process-global.
func TestGuardHotGetZeroAlloc(t *testing.T) {
	_, rd := guardReg(t)
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := rd.Get(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state Get allocates %.1f objects/op, want 0", avg)
	}
}

// TestGuardHotSetZeroAlloc pins zero allocations on the uncontended
// write with telemetry compiled in (Raw codec: no encode copy).
func TestGuardHotSetZeroAlloc(t *testing.T) {
	reg, rd := guardReg(t)
	defer rd.Close()
	w, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	if avg := testing.AllocsPerRun(2000, func() {
		if err := w.Set(val); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("uncontended Set allocates %.1f objects/op, want 0", avg)
	}
}

// TestGuardNoWaiterPublishZeroAlloc pins the no-waiter publication:
// with the notification sequencer wired but no watcher parked, a write
// must not allocate and must not take the armed-gate stamp path (no
// wakeups recorded).
func TestGuardNoWaiterPublishZeroAlloc(t *testing.T) {
	reg, rd := guardReg(t)
	defer rd.Close()
	w, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	if avg := testing.AllocsPerRun(2000, func() {
		if err := w.Set(val); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("no-waiter publish allocates %.1f objects/op, want 0", avg)
	}
	sn := reg.Stats()
	watchers := sn.Child("watchers")
	if watchers == nil {
		t.Fatal("stats tree has no watchers child")
	}
	if got, _ := watchers.Get("wakeups"); got != 0 {
		t.Errorf("no-waiter publishes recorded %d wakeups, want 0", got)
	}
	if got, _ := watchers.Get("live"); got != 0 {
		t.Errorf("watcher ledger shows %d live watchers, want 0", got)
	}
}

// TestGuardBaselineSetNoWatcher pins the sequencer's cost on the five
// baselines: with no watcher a Set allocates nothing and leaves the
// lazily allocated notify gate uninstalled.
func TestGuardBaselineSetNoWatcher(t *testing.T) {
	for _, alg := range facadeAlgs[1:] {
		t.Run(alg.String(), func(t *testing.T) {
			reg, err := arcreg.New[[]byte](
				arcreg.WithAlgorithm(alg),
				arcreg.WithCodec(arcreg.Raw()),
				arcreg.WithReaders(2),
				arcreg.WithMaxValueSize(1024),
			)
			if err != nil {
				t.Fatal(err)
			}
			w, err := reg.NewWriter()
			if err != nil {
				t.Fatal(err)
			}
			val := make([]byte, 1024)
			if avg := testing.AllocsPerRun(2000, func() {
				if err := w.Set(val); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("no-watcher Set allocates %.1f objects/op, want 0", avg)
			}
			seq := notifier(reg)
			if seq.Gated() != nil {
				t.Error("a Set with no watcher installed the notify gate")
			}
			if got := seq.Epoch(); got != 2001 {
				t.Errorf("epoch = %d after 2001 Sets, want 2001", got)
			}
		})
	}
}
