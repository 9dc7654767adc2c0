package arcreg_test

// Facade-level tests for the watch subsystem: event-driven Watch and
// Changed across the (1,N) algorithms, the (M,N) and map shapes — one
// delivery path, the publication sequencer every register carries —
// goroutine hygiene after cancellation, and the benchmark pair
// asserting that an idle watcher costs the writer nothing (BenchmarkSet
// vs BenchmarkSetWithWatcherIdle).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcreg"
	"arcreg/internal/notify"
)

// watchCollect ranges a Watch iterator in a goroutine, forwarding
// yields into a buffered channel.
type tickEvent struct {
	v   int
	err error
}

func collectWatch(reg *arcreg.Reg[int], ctx context.Context) (<-chan tickEvent, error) {
	rd, err := reg.NewReader()
	if err != nil {
		return nil, err
	}
	ch := make(chan tickEvent, 256)
	go func() {
		defer close(ch)
		defer rd.Close()
		for v, err := range rd.Watch(ctx) {
			ch <- tickEvent{v: v, err: err}
		}
	}()
	return ch, nil
}

func nextTick(t *testing.T, ch <-chan tickEvent) tickEvent {
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

// TestWatchDeliversEveryChange: sequential Sets with the watcher kept
// in lockstep are all delivered, in order, event-driven.
func TestWatchDeliversEveryChange(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := collectWatch(reg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		for range ch {
		}
	}()
	if ev := nextTick(t, ch); ev.err != nil || ev.v != 0 {
		t.Fatalf("initial event = %+v, want zero value", ev)
	}
	for i := 1; i <= 50; i++ {
		if err := reg.Set(i); err != nil {
			t.Fatal(err)
		}
		if ev := nextTick(t, ch); ev.err != nil || ev.v != i {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	cancel()
	ev := nextTick(t, ch)
	if !errors.Is(ev.err, context.Canceled) {
		t.Fatalf("terminal event = %+v, want context.Canceled", ev)
	}
}

// notifier returns the publication sequencer under a (1,N) register.
func notifier[T any](reg *arcreg.Reg[T]) *notify.Sequencer {
	return reg.Register().(interface{ Notifier() *notify.Sequencer }).Notifier()
}

// TestWatchGateInstalledByWatchOnly: on every algorithm a typed
// register reader leaves the sequencer's lazily allocated gate
// uninstalled through NewReader, Get and Stats; the first parked Watch
// installs it, delivers, and ends on cancellation with ctx's error.
func TestWatchGateInstalledByWatchOnly(t *testing.T) {
	for _, alg := range facadeAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			reg, err := arcreg.New[int](arcreg.WithAlgorithm(alg), arcreg.WithReaders(2))
			if err != nil {
				t.Fatal(err)
			}
			seq := notifier(reg)
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if _, err := rd.Get(); err != nil {
				t.Fatal(err)
			}
			reg.Stats()
			if seq.Gated() != nil {
				t.Fatal("NewReader, Get or Stats installed the notify gate")
			}
			ctx, cancel := context.WithCancel(context.Background())
			ch, err := collectWatch(reg, ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				cancel()
				for range ch {
				}
			}()
			if ev := nextTick(t, ch); ev.err != nil || ev.v != 0 {
				t.Fatalf("initial event = %+v, want zero value", ev)
			}
			if seq.Gated() == nil {
				t.Fatal("a parked Watch did not install the notify gate")
			}
			if err := reg.Set(1); err != nil {
				t.Fatal(err)
			}
			if ev := nextTick(t, ch); ev.err != nil || ev.v != 1 {
				t.Fatalf("event after Set = %+v, want 1", ev)
			}
			cancel()
			if ev := nextTick(t, ch); !errors.Is(ev.err, context.Canceled) {
				t.Fatalf("terminal event = %+v, want context.Canceled", ev)
			}
		})
	}
}

// TestWatchConflatesBursts: a burst of Sets published while the watcher
// is busy is observed as at least one change carrying the newest value
// — and the newest value is always the last thing delivered.
func TestWatchConflatesBursts(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := collectWatch(reg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		for range ch {
		}
	}()
	nextTick(t, ch) // initial zero
	const last = 200
	for i := 1; i <= last; i++ {
		if err := reg.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	// Conflation may skip intermediates but must reach the final value,
	// monotonically.
	prev := 0
	for {
		ev := nextTick(t, ch)
		if ev.err != nil {
			t.Fatalf("watch error: %v", ev.err)
		}
		if ev.v < prev {
			t.Fatalf("value regressed %d → %d", prev, ev.v)
		}
		prev = ev.v
		if ev.v == last {
			return
		}
	}
}

// TestWatchMN: the (M,N) composition delivers changes from every writer
// through the composite gate, tag-monotonically.
func TestWatchMN(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithWriters(2), arcreg.WithReaders(2))
	if err != nil {
		t.Fatal(err)
	}
	w1, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := collectWatch(reg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		for range ch {
		}
	}()
	nextTick(t, ch) // initial zero
	writers := []*arcreg.TypedWriter[int]{w1, w2}
	for i := 1; i <= 20; i++ {
		if err := writers[i%2].Set(i); err != nil {
			t.Fatal(err)
		}
		if ev := nextTick(t, ch); ev.err != nil || ev.v != i {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

// TestWatchMNDecodesOncePerYield: over (M,N), Watch decodes exactly
// once per yielded value and never yields one publication twice in a
// row, while two writers publish concurrently — both for a consumer
// that keeps up and for one that paces itself with a sleep in the loop
// body ("values"). A publish that loses the tag argmax fails the
// composite's conservative freshness probe; the tag-confirmed ViewFresh
// reports it unchanged, so it costs neither a decode nor a repeated
// yield.
func TestWatchMNDecodesOncePerYield(t *testing.T) {
	for _, mode := range []string{"watch", "values"} {
		t.Run(mode, func(t *testing.T) {
			cd := newCountCodec(arcreg.String())
			reg, err := arcreg.New[string](arcreg.WithCodec[string](cd),
				arcreg.WithWriters(2), arcreg.WithReaders(1), arcreg.WithMaxValueSize(32))
			if err != nil {
				t.Fatal(err)
			}
			var writers [2]*arcreg.TypedWriter[string]
			for i := range writers {
				if writers[i], err = reg.NewWriter(); err != nil {
					t.Fatal(err)
				}
				defer writers[i].Close()
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			// Both writers publish distinct values at once; when both are
			// done, "end" outbids every tag, so it must be yielded.
			published := make(chan struct{})
			go func() {
				defer close(published)
				var wg sync.WaitGroup
				for _, w := range writers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 300; i++ {
							if err := w.Set(fmt.Sprintf("w%d-%d", w.ID(), i)); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if err := writers[0].Set("end"); err != nil {
					t.Error(err)
				}
			}()

			var yields int64
			prev := ""
			for v, err := range rd.Watch(ctx) {
				if err != nil {
					t.Fatalf("after %d yields: %v", yields, err)
				}
				if yields > 0 && v == prev {
					t.Fatalf("yielded %q twice in a row", v)
				}
				yields++
				prev = v
				if v == "end" {
					break
				}
				if mode == "values" {
					time.Sleep(20 * time.Microsecond)
				}
			}
			<-published
			if got := cd.decodes.Load(); got != yields {
				t.Fatalf("%d decodes for %d yields", got, yields)
			}
		})
	}
}

// TestChangedSignal: Reg.Changed closes on the next publication after
// the call, and on cancellation.
func TestChangedSignal(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ch := reg.Changed(ctx)
	select {
	case <-ch:
		t.Fatal("Changed fired before any publication")
	case <-time.After(20 * time.Millisecond):
	}
	if err := reg.Set(1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("Changed did not fire on Set")
	}

	cctx, cancel := context.WithCancel(context.Background())
	ch = reg.Changed(cctx)
	cancel()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("Changed did not close on cancellation")
	}
}

// TestChangedEveryAlgorithm: on every shape Changed fires on a Set
// made right after it returns (the epoch is snapshotted before the
// return), closes on a cancelled context, and needs no reader handle:
// the only reader slot stays held throughout.
func TestChangedEveryAlgorithm(t *testing.T) {
	for _, shape := range watchShapes {
		t.Run(shape.name, func(t *testing.T) {
			reg, err := arcreg.New[int](append([]arcreg.Option{arcreg.WithReaders(1)}, shape.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 1; i <= 3; i++ {
				ch := reg.Changed(ctx)
				if err := reg.Set(i); err != nil { // immediately after the call
					t.Fatal(err)
				}
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: Changed never fired", i)
				}
				if v, err := rd.Get(); err != nil || v != i {
					t.Fatalf("round %d: Get = %d, %v", i, v, err)
				}
			}
			cancel()
			select {
			case <-reg.Changed(ctx): // cancelled ctx: must still close
			case <-time.After(10 * time.Second):
				t.Fatal("Changed did not close on a cancelled context")
			}
		})
	}
}

// TestWatchGoroutineHygiene: cancelled watchers and Changed waiters all
// exit; nothing leaks.
func TestWatchGoroutineHygiene(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(64))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var chans []<-chan tickEvent
	for i := 0; i < 16; i++ {
		ch, err := collectWatch(reg, ctx)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		_ = reg.Changed(ctx) // parked Changed waiters must die with ctx too
	}
	cancel()
	for _, ch := range chans {
		for range ch {
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after cancel\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMapWatchTyped: the typed map watch decodes the stream and carries
// lifecycle misses through delete/recreate.
func TestMapWatchTyped(t *testing.T) {
	type price struct{ Bid, Ask float64 }
	m, err := arcreg.NewMap[price](arcreg.WithReaders(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("EURUSD", price{Bid: 1.08, Ask: 1.09}); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type ev struct {
		p   price
		err error
	}
	ch := make(chan ev, 64)
	go func() {
		defer close(ch)
		defer rd.Close()
		for p, err := range rd.Watch(ctx, "EURUSD") {
			ch <- ev{p: p, err: err}
		}
	}()
	defer func() {
		cancel()
		for range ch {
		}
	}()
	next := func() ev {
		t.Helper()
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatal("map watch ended early")
			}
			return e
		case <-time.After(10 * time.Second):
			t.Fatal("no map watch event within 10s")
		}
		panic("unreachable")
	}
	if e := next(); e.err != nil || e.p.Bid != 1.08 {
		t.Fatalf("initial event = %+v", e)
	}
	if err := m.Set("EURUSD", price{Bid: 1.10, Ask: 1.11}); err != nil {
		t.Fatal(err)
	}
	if e := next(); e.err != nil || e.p.Bid != 1.10 {
		t.Fatalf("update event = %+v", e)
	}
	if err := m.Delete("EURUSD"); err != nil {
		t.Fatal(err)
	}
	if e := next(); !errors.Is(e.err, arcreg.ErrKeyNotFound) {
		t.Fatalf("delete event = %+v, want ErrKeyNotFound", e)
	}
	if err := m.Set("EURUSD", price{Bid: 1.20, Ask: 1.21}); err != nil {
		t.Fatal(err)
	}
	if e := next(); e.err != nil || e.p.Bid != 1.20 {
		t.Fatalf("re-create event = %+v (a 1.08/1.10 here is a resurrection)", e)
	}
}

// TestMapWatchAllTyped: the decoded snapshot-delta stream.
func TestMapWatchAllTyped(t *testing.T) {
	m, err := arcreg.NewMap[int](arcreg.WithReaders(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("a", 1); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type ev struct {
		d   arcreg.MapDeltaOf[int]
		err error
	}
	ch := make(chan ev, 64)
	go func() {
		defer close(ch)
		defer rd.Close()
		for d, err := range rd.WatchAll(ctx) {
			ch <- ev{d: d, err: err}
		}
	}()
	defer func() {
		cancel()
		for range ch {
		}
	}()
	next := func() ev {
		t.Helper()
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatal("WatchAll ended early")
			}
			return e
		case <-time.After(10 * time.Second):
			t.Fatal("no WatchAll event within 10s")
		}
		panic("unreachable")
	}
	e := next()
	if e.err != nil || !e.d.Full || e.d.Values["a"] != 1 {
		t.Fatalf("first event = %+v, want full {a:1}", e)
	}
	if err := m.Set("b", 2); err != nil {
		t.Fatal(err)
	}
	e = next()
	if e.err != nil || e.d.Full || e.d.Values["b"] != 2 {
		t.Fatalf("create event = %+v, want {b:2}", e)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	e = next()
	if e.err != nil || len(e.d.Deleted) != 1 || e.d.Deleted[0] != "a" {
		t.Fatalf("delete event = %+v, want Deleted=[a]", e)
	}
}

// BenchmarkSet is the baseline write path: ARC Set through the facade
// with the Raw codec (no encoding allocations), no watcher anywhere.
func BenchmarkSet(b *testing.B) {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()), arcreg.WithReaders(2))
	if err != nil {
		b.Fatal(err)
	}
	w, err := reg.NewWriter()
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.SetBytes(val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetWithWatcherIdle is the acceptance benchmark: a Watch
// subscriber exists but is not parked (it is stalled in its consumer
// body, the "busy processing" state), so every Set takes the no-waiter
// publish path. Must match BenchmarkSet within noise: 0 RMW and 0
// allocations added by the notify layer.
func BenchmarkSetWithWatcherIdle(b *testing.B) {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()), arcreg.WithReaders(2))
	if err != nil {
		b.Fatal(err)
	}
	w, err := reg.NewWriter()
	if err != nil {
		b.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	received := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer rd.Close()
		for range rd.Watch(ctx) {
			close(received)
			<-release // stall in the consumer: watcher exists, none parked
			return
		}
	}()
	if err := w.SetBytes(make([]byte, 64)); err != nil {
		b.Fatal(err)
	}
	<-received
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.SetBytes(val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cancel()
	close(release)
}

// BenchmarkSetWithWatcherParked measures the woken path: the watcher is
// parked and every Set pays the swap+close wakeup (plus the watcher's
// re-read on another core). The interesting comparison is against
// BenchmarkSet: the delta is the full cost of delivering a wakeup.
func BenchmarkSetWithWatcherParked(b *testing.B) {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()), arcreg.WithReaders(2))
	if err != nil {
		b.Fatal(err)
	}
	w, err := reg.NewWriter()
	if err != nil {
		b.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer rd.Close()
		for range rd.Watch(ctx) {
			seen.Add(1)
		}
	}()
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.SetBytes(val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cancel()
	<-done
	b.ReportMetric(float64(seen.Load())/float64(b.N), "wakeups/op")
}
