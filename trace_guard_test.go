package arcreg_test

// Guard tests for the flight-recorder tentpole's zero-overhead
// contract: the recorder runs always-on inside the hot paths it
// instruments, so enabling it must not add a single RMW instruction or
// allocation to steady-state Get, Set, or the no-waiter publish. The
// RMW guards compare instrumented traces between an untraced map and a
// traced one — bit-identical counts, not "small" — and the allocation
// guards run on the traced map directly.

import (
	"bytes"
	"fmt"
	"testing"

	"arcreg"
)

// guardMaps builds a matched untraced/traced map pair in the same
// steady state: 64 keys seeded, one reader warmed on a hot key.
func guardTraceMap(t testing.TB, traced bool) (*arcreg.Map, *arcreg.MapOfReader[[]byte]) {
	t.Helper()
	m, err := arcreg.NewByteMap(arcreg.MapConfig{
		MaxReaders:   1,
		MaxValueSize: 256,
		Trace:        traced,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := m.Set(fmt.Sprintf("key-%06d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	if _, err := rd.Get("key-000007"); err != nil {
		t.Fatal(err)
	}
	return m, rd
}

// TestTraceGuardHotGetRMWBitIdentical pins the read side: the RMW trace
// of a hot-key Get run is bit-identical with the recorder on and off —
// and both are zero. The traced map is genuinely recording (its shard
// writers stamped publishes during seeding), so this is the live
// configuration, not a disabled recorder.
func TestTraceGuardHotGetRMWBitIdentical(t *testing.T) {
	const ops = 20000
	run := func(traced bool) (rmw, fast uint64) {
		_, rd := guardTraceMap(t, traced)
		before := rd.ReadStats()
		for i := 0; i < ops; i++ {
			if _, err := rd.Get("key-000007"); err != nil {
				t.Fatal(err)
			}
		}
		after := rd.ReadStats()
		return after.RMW - before.RMW, after.FastPath - before.FastPath
	}
	quietRMW, quietFast := run(false)
	tracedRMW, tracedFast := run(true)
	if tracedRMW != quietRMW {
		t.Errorf("hot Get RMW trace not bit-identical: %d untraced vs %d traced over %d ops",
			quietRMW, tracedRMW, ops)
	}
	if tracedRMW != 0 {
		t.Errorf("traced hot Gets executed %d RMW instructions, want 0", tracedRMW)
	}
	if quietFast != ops || tracedFast != ops {
		t.Errorf("fast-path Gets = %d untraced / %d traced, want %d both", quietFast, tracedFast, ops)
	}
}

// TestTraceGuardSetRMWBitIdentical pins the write side: steady-state
// Set (existing key, no waiter parked) has an inherent RMW budget of
// exactly one per publish (the register's W2 swap); recording the
// publish event and its span stamp must not move it.
func TestTraceGuardSetRMWBitIdentical(t *testing.T) {
	const ops = 5000
	val := bytes.Repeat([]byte{0xab}, 64)
	run := func(traced bool) uint64 {
		m, _ := guardTraceMap(t, traced)
		if err := m.Set("key-000007", val); err != nil { // settle the slot scan
			t.Fatal(err)
		}
		before := m.WriteStats()
		for i := 0; i < ops; i++ {
			if err := m.Set("key-000007", val); err != nil {
				t.Fatal(err)
			}
		}
		after := m.WriteStats()
		return after.Value.RMW - before.Value.RMW
	}
	quiet := run(false)
	traced := run(true)
	if traced != quiet {
		t.Errorf("Set RMW trace not bit-identical: %d untraced vs %d traced over %d ops",
			quiet, traced, ops)
	}
	if traced != ops {
		t.Errorf("traced no-waiter Set executed %d RMW over %d ops, want exactly %d (the W2 swap only)",
			traced, ops, ops)
	}
}

// TestTraceGuardHotGetZeroAlloc pins zero allocations on the traced
// steady-state Get.
func TestTraceGuardHotGetZeroAlloc(t *testing.T) {
	_, rd := guardTraceMap(t, true)
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := rd.Get("key-000007"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("traced steady-state Get allocates %.1f objects/op, want 0", avg)
	}
}

// benchTraceGet / benchTraceSet measure the recorder's wall-clock cost
// directly: same map shape, same steady state, recorder on vs off. The
// deltas back the overhead table in DESIGN.md §13.
func benchTraceGet(b *testing.B, traced bool) {
	_, rd := guardTraceMap(b, traced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Get("key-000007"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTraceSet(b *testing.B, traced bool) {
	m, _ := guardTraceMap(b, traced)
	val := bytes.Repeat([]byte{0xab}, 64)
	if err := m.Set("key-000007", val); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Set("key-000007", val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetUntraced(b *testing.B) { benchTraceGet(b, false) }
func BenchmarkGetTraced(b *testing.B)   { benchTraceGet(b, true) }
func BenchmarkSetUntraced(b *testing.B) { benchTraceSet(b, false) }
func BenchmarkSetTraced(b *testing.B)   { benchTraceSet(b, true) }

// TestTraceGuardNoWaiterPublishZeroAlloc pins zero allocations on the
// traced no-waiter publish: the recording path is four plain stores
// and a head store into a preallocated ring — no boxing, no growth.
func TestTraceGuardNoWaiterPublishZeroAlloc(t *testing.T) {
	m, _ := guardTraceMap(t, true)
	val := bytes.Repeat([]byte{0xcd}, 64)
	if err := m.Set("key-000007", val); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if err := m.Set("key-000007", val); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("traced no-waiter Set allocates %.1f objects/op, want 0", avg)
	}
	// The recorder really ran: the shard's ring holds the publishes.
	tr := m.Tracer()
	if tr == nil {
		t.Fatal("traced map returned nil Tracer")
	}
	b := tr.Breakdown()
	if b.Count[arcreg.StagePublish] == 0 {
		t.Fatal("traced publishes recorded no StagePublish events")
	}
}
