package regmap

// Compaction-epoch and repair tests: explicit and automatic compaction,
// bounded directory memory under churn, reader rebase (held views and
// handles surviving the epoch bump, no resurrection), corrupt-latch
// repair through Get and parked watchers, crash-point recovery via
// Compact, and fault-point coverage (run under -race in CI).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"arcreg/internal/fault"
)

// verKey / verVal build versioned values (8-byte LE version + payload)
// for monotonicity checks across delete/recreate churn.
func verVal(version uint64) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v, version)
	binary.LittleEndian.PutUint64(v[8:], ^version)
	return v
}

func verOf(t testing.TB, v []byte) uint64 {
	t.Helper()
	if len(v) != 16 {
		t.Fatalf("versioned value has %d bytes, want 16", len(v))
	}
	ver := binary.LittleEndian.Uint64(v)
	if chk := binary.LittleEndian.Uint64(v[8:]); chk != ^ver {
		t.Fatalf("torn versioned value: version %d, check %d", ver, chk)
	}
	return ver
}

// TestCompactExplicit pins the epoch-bump basics: Compact shrinks the
// log to the live set, bumps the compaction generation, and both an
// incremental reader (rebase) and a fresh reader (cold decode of the
// compacted log) agree with the writer afterwards.
func TestCompactExplicit(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 32})
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i := 0; i < 8; i++ {
		if err := m.Set(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the incremental reader, then churn garbage into the log.
	if _, err := rd.Get("k0"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		if err := m.Delete(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := m.shards[0]
	before := len(sh.dirBuf)
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := len(sh.dirBuf); got >= before {
		t.Fatalf("compacted log %d bytes, want < %d", got, before)
	}
	if sh.cgen != 1 || sh.compactions != 1 {
		t.Fatalf("cgen %d compactions %d, want 1/1", sh.cgen, sh.compactions)
	}
	if sh.nentries != len(sh.index) {
		t.Fatalf("compacted log has %d entries for %d live keys", sh.nentries, len(sh.index))
	}
	check := func(r *Reader, label string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("k%d", i)
			if v, err := r.Get(k); err != nil || len(v) != 1 || v[0] != byte(i) {
				t.Fatalf("%s Get(%s) after compact = %v, %v", label, k, v, err)
			}
		}
		for i := 4; i < 8; i++ {
			if _, err := r.Get(fmt.Sprintf("k%d", i)); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("%s deleted key resurrected after compact: %v", label, err)
			}
		}
		if n, err := r.Len(); err != nil || n != 4 {
			t.Fatalf("%s Len after compact = %d, %v", label, n, err)
		}
	}
	check(rd, "rebased reader")
	rd2, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	check(rd2, "fresh reader")
	if ws := m.WriteStats(); ws.Compactions != 1 || ws.DirBytes != uint64(len(sh.dirBuf)) {
		t.Fatalf("WriteStats compactions/dirbytes = %d/%d", ws.Compactions, ws.DirBytes)
	}
}

// TestCompactPreservesViewsAndHandles pins the reader-side survival
// guarantees across an epoch bump: a view held across Compact stays
// byte-stable, the key's handle is picked back up (not re-acquired),
// and the hot Get returns to the zero-RMW fast path immediately after
// the rebase.
func TestCompactPreservesViewsAndHandles(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
	if err := m.Set("held", []byte("stable-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("churn", []byte("x")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	view, err := rd.Get("held")
	if err != nil {
		t.Fatal(err)
	}
	rs := &rd.shards[0]
	slot := rs.table["held"]
	h := rs.handles[slot]
	if err := m.Delete("churn"); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := rd.Get("held")
	if err != nil || string(got) != "stable-bytes" {
		t.Fatalf("Get(held) across compact = %q, %v", got, err)
	}
	if string(view) != "stable-bytes" {
		t.Fatalf("held view mutated across compact: %q", view)
	}
	if rs.handles[slot] != h {
		t.Fatal("compaction rebase re-acquired the key handle instead of reusing it")
	}
	// Steady state restored: the next Get is the two-load fast path.
	rmw := rd.Stats().RMW
	if _, err := rd.Get("held"); err != nil {
		t.Fatal(err)
	}
	if got := rd.Stats().RMW; got != rmw {
		t.Fatalf("hot Get after compact executed %d RMW", got-rmw)
	}
}

// TestAutoCompactionBoundedChurn is the ceiling-lifecycle test: under
// delete/recreate churn against a test-shrunk ceiling, appends
// auto-compact — writes keep succeeding across 10+ epochs, directory
// bytes stay bounded, held views survive, versions stay monotone, and
// no deleted key resurrects.
func TestAutoCompactionBoundedChurn(t *testing.T) {
	restore := SetDirCapacity(512)
	defer restore()
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 32})
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	const keys = 4
	versions := make([]uint64, keys)
	lastSeen := make([]uint64, keys)
	var ver uint64
	key := func(i int) string { return fmt.Sprintf("churn-%d", i) }
	for i := 0; i < keys; i++ {
		ver++
		versions[i] = ver
		if err := m.Set(key(i), verVal(ver)); err != nil {
			t.Fatal(err)
		}
	}
	held, err := rd.Get(key(0))
	if err != nil {
		t.Fatal(err)
	}
	heldVer := verOf(t, held)
	sh := m.shards[0]
	maxBytes := len(sh.dirBuf)
	for round := 0; round < 600; round++ {
		i := round % keys
		if err := m.Delete(key(i)); err != nil {
			t.Fatalf("round %d: Delete: %v", round, err)
		}
		if v, err := rd.Get(key(i)); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("round %d: deleted key visible: %q, %v", round, v, err)
		}
		ver++
		versions[i] = ver
		if err := m.Set(key(i), verVal(ver)); err != nil {
			t.Fatalf("round %d: Set: %v", round, err)
		}
		if n := len(sh.dirBuf); n > maxBytes {
			maxBytes = n
		}
		// The reader tracks the churn exactly, with monotone versions.
		j := (round * 7) % keys
		v, err := rd.Get(key(j))
		if err != nil {
			t.Fatalf("round %d: Get(%s): %v", round, key(j), err)
		}
		got := verOf(t, v)
		if got < lastSeen[j] || got != versions[j] {
			t.Fatalf("round %d: key %d version %d (last seen %d, writer %d)", round, j, got, lastSeen[j], versions[j])
		}
		lastSeen[j] = got
	}
	if sh.compactions < 10 {
		t.Fatalf("churn drove only %d compaction epochs, want >= 10", sh.compactions)
	}
	if maxBytes > 512 {
		t.Fatalf("directory grew to %d bytes past the 512 ceiling", maxBytes)
	}
	if verOf(t, held) != heldVer {
		t.Fatalf("held view mutated across %d compactions", sh.compactions)
	}
	if n, err := rd.Len(); err != nil || n != keys {
		t.Fatalf("Len after churn = %d, %v", n, err)
	}
}

// TestCorruptRepair pins the latch-and-heal lifecycle on the plain read
// path: a corrupt publication latches every touched operation with
// ErrShardCorrupt (sticky while the directory is quiet), a later
// genuine publication — append or compaction — repairs the reader, and
// the repair is counted.
func TestCorruptRepair(t *testing.T) {
	for _, heal := range []string{"compact", "append"} {
		t.Run(heal, func(t *testing.T) {
			m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
			if err := m.Set("a", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			rd, err := m.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if _, err := rd.Get("a"); err != nil {
				t.Fatal(err)
			}
			if err := m.InjectDirectoryCorruption(0); err != nil {
				t.Fatal(err)
			}
			if _, err := rd.Get("a"); !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("Get on corrupt shard = %v, want ErrShardCorrupt", err)
			}
			// Sticky while nothing new publishes: Get, Len, Keys, Snapshot
			// all return the latch; Fresh reports false.
			if _, err := rd.Get("a"); !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("latch not sticky: %v", err)
			}
			if _, err := rd.Len(); !errors.Is(err, ErrShardCorrupt) {
				t.Fatal("Len served a corrupt shard")
			}
			if _, err := rd.Keys(); !errors.Is(err, ErrShardCorrupt) {
				t.Fatal("Keys served a corrupt shard")
			}
			if _, err := rd.Snapshot(); !errors.Is(err, ErrShardCorrupt) {
				t.Fatal("Snapshot served a corrupt shard")
			}
			if rd.Fresh("a") {
				t.Fatal("corrupt shard reports fresh")
			}
			// A Set of an existing key publishes only that key's value
			// register, not the directory, so it is no repair
			// opportunity: the latch survives it.
			if err := m.Set("a", []byte("v1b")); err != nil {
				t.Fatal(err)
			}
			if _, err := rd.Get("a"); !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("Get after an existing-key Set = %v, want the latch", err)
			}
			want := "v1b"
			switch heal {
			case "compact":
				if err := m.Compact(); err != nil {
					t.Fatal(err)
				}
			case "append":
				// The writer never saw the injected garbage: its next
				// ordinary publication republishes the genuine log and
				// the reader rebases onto it — no compaction required.
				if err := m.Set("b", []byte("v2")); err != nil {
					t.Fatal(err)
				}
			}
			if v, err := rd.Get("a"); err != nil || string(v) != want {
				t.Fatalf("Get after %s repair = %q, %v", heal, v, err)
			}
			if st := rd.Stats(); st.Repairs != 1 {
				t.Fatalf("Repairs = %d, want 1", st.Repairs)
			}
			if snap, err := rd.Snapshot(); err != nil || string(snap["a"]) != want {
				t.Fatalf("Snapshot after repair = %v, %v", snap, err)
			}
		})
	}
}

// TestShorterLogRebases pins the in-epoch regression guard: a reader
// that accepted a plausible-garbage log (same cgen, longer than the
// genuine one, every entry naming a real slot at its real generation)
// has a poisoned frontier. The writer's next genuine publication is a
// shorter log, which the reader must treat as a regression — re-decode
// it from scratch and count a repair — instead of resuming its decode
// past the end and keeping the garbage bindings.
func TestShorterLogRebases(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
	for _, k := range []string{"k0", "k1"} {
		if err := m.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Get("k0"); err != nil {
		t.Fatal(err)
	}
	// Tombstone k1's slot and re-add it, same generation, under another
	// key: decodes cleanly against the slot array.
	sh := m.shards[0]
	garbage := append(bytes.Clone(sh.dirBuf), 1<<1|tombstoneFlag)
	garbage = appendAdd(garbage, 1, 1, "impostor-key-with-a-long-name")
	if err := sh.dir.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if v, err := rd.Get("impostor-key-with-a-long-name"); err != nil || string(v) != "v-k1" {
		t.Fatalf("garbage log not accepted as plausible: %q, %v", v, err)
	}
	if err := m.Set("k2", []byte("v-k2")); err != nil {
		t.Fatal(err)
	}
	if len(sh.dirBuf) >= len(garbage) {
		t.Fatalf("genuine log (%d bytes) not shorter than the garbage (%d)", len(sh.dirBuf), len(garbage))
	}
	for _, k := range []string{"k0", "k1", "k2"} {
		if v, err := rd.Get(k); err != nil || string(v) != "v-"+k {
			t.Fatalf("Get(%s) after the shorter genuine log = %q, %v", k, v, err)
		}
	}
	if _, err := rd.Get("impostor-key-with-a-long-name"); err != ErrKeyNotFound {
		t.Fatalf("garbage binding survived: %v", err)
	}
	if st := rd.Stats(); st.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", st.Repairs)
	}
}

// TestWatchAcrossRepair is the satellite regression test: a watcher
// parked on a shard that latches corrupt observes the episode as an
// event (not a terminal error) and resumes with the repaired state.
func TestWatchAcrossRepair(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
	if err := m.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type event struct {
		val []byte
		err error
	}
	events := make(chan event)
	go func() {
		defer close(events)
		for v, err := range rd.Watch(ctx, "k") {
			var cp []byte
			if v != nil {
				cp = append([]byte(nil), v...)
			}
			events <- event{cp, err}
		}
	}()
	expect := func(stage string, wantVal string, wantErr error) {
		t.Helper()
		ev, ok := <-events
		if !ok {
			t.Fatalf("%s: watch ended", stage)
		}
		if wantErr != nil {
			if !errors.Is(ev.err, wantErr) {
				t.Fatalf("%s: event err = %v, want %v", stage, ev.err, wantErr)
			}
			return
		}
		if ev.err != nil || string(ev.val) != wantVal {
			t.Fatalf("%s: event = %q, %v; want %q", stage, ev.val, ev.err, wantVal)
		}
	}
	expect("initial", "v1", nil)
	if err := m.InjectDirectoryCorruption(0); err != nil {
		t.Fatal(err)
	}
	expect("corrupt episode", "", ErrShardCorrupt)
	// The epoch bump both repairs the latch and carries the next value:
	// the parked watcher must wake, heal, and deliver it.
	if err := m.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	expect("post-repair value", "v2", nil)
	cancel()
	for range events {
	}
}

// TestWatchAcrossCompaction pins that an epoch bump alone is invisible
// to a parked single-key watcher — no spurious event, no duplicate —
// while a genuine change right after the bump is delivered.
func TestWatchAcrossCompaction(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
	if err := m.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan string)
	go func() {
		defer close(events)
		for v, err := range rd.Watch(ctx, "k") {
			if err != nil {
				events <- "err:" + err.Error()
				continue
			}
			events <- string(v)
		}
	}()
	if got := <-events; got != "v1" {
		t.Fatalf("initial event = %q", got)
	}
	if err := m.Delete("other"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// The only event across three compactions is the genuine change.
	if got := <-events; got != "v2" {
		t.Fatalf("event across compactions = %q, want v2 (no spurious events)", got)
	}
	cancel()
	for range events {
	}
}

// TestWatchAllAcrossRepair mirrors TestWatchAcrossRepair for the
// whole-map snapshot-delta stream.
func TestWatchAllAcrossRepair(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 1, MaxValueSize: 32})
	if err := m.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type event struct {
		delta Delta
		err   error
	}
	events := make(chan event)
	go func() {
		defer close(events)
		for d, err := range rd.WatchAll(ctx) {
			events <- event{d, err}
		}
	}()
	ev := <-events
	if ev.err != nil || !ev.delta.Full || string(ev.delta.Values["a"]) != "1" {
		t.Fatalf("first event = %+v, %v", ev.delta, ev.err)
	}
	si := m.ShardOf("a")
	if err := m.InjectDirectoryCorruption(si); err != nil {
		t.Fatal(err)
	}
	ev = <-events
	if !errors.Is(ev.err, ErrShardCorrupt) {
		t.Fatalf("corrupt episode event err = %v, want ErrShardCorrupt", ev.err)
	}
	if err := m.Set("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	ev = <-events
	if ev.err != nil || string(ev.delta.Values["a"]) != "2" {
		t.Fatalf("post-repair event = %+v, %v", ev.delta, ev.err)
	}
	cancel()
	for range events {
	}
}

// TestCrashRecoveryViaCompact drives each crash-capable fault point
// once: the operation unwinds with fault.Crashed, the writer's tables
// stay internally consistent, and one Compact reconverges every reader
// with the writer — the universal crash repair.
func TestCrashRecoveryViaCompact(t *testing.T) {
	recoverCrash := func(t *testing.T, op func() error) (crashed bool) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(fault.Crashed); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		if err := op(); err != nil {
			t.Fatalf("op: %v", err)
		}
		return false
	}
	t.Run("delete-recycle", func(t *testing.T) {
		m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
		for _, k := range []string{"a", "b"} {
			if err := m.Set(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if _, err := rd.Get("a"); err != nil {
			t.Fatal(err)
		}
		s, err := fault.NewSchedule(1, fault.Rule{Point: FaultDeleteRecycle, Kind: fault.Crash, On: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Arm()
		crashed := recoverCrash(t, func() error { return m.Delete("a") })
		s.Disarm()
		if !crashed {
			t.Fatal("armed crash did not fire")
		}
		// The delete applied to the writer but never published; readers
		// still see the key until the repair compaction.
		if v, err := rd.Get("a"); err != nil || string(v) != "a" {
			t.Fatalf("pre-repair Get = %q, %v", v, err)
		}
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Get("a"); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("post-repair Get = %v, want ErrKeyNotFound", err)
		}
		if v, err := rd.Get("b"); err != nil || string(v) != "b" {
			t.Fatalf("post-repair Get(b) = %q, %v", v, err)
		}
	})
	t.Run("dir-prepublish", func(t *testing.T) {
		m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
		if err := m.Set("a", []byte("a")); err != nil {
			t.Fatal(err)
		}
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		s, err := fault.NewSchedule(1, fault.Rule{Point: FaultDirPrepublish, Kind: fault.Crash, On: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Arm()
		crashed := recoverCrash(t, func() error { return m.Set("new", []byte("n")) })
		s.Disarm()
		if !crashed {
			t.Fatal("armed crash did not fire")
		}
		// The add is fully prepared but unpublished: invisible until the
		// repair compaction publishes the writer's tables.
		if _, err := rd.Get("new"); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("pre-repair Get(new) = %v", err)
		}
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
		if v, err := rd.Get("new"); err != nil || string(v) != "n" {
			t.Fatalf("post-repair Get(new) = %q, %v", v, err)
		}
	})
	t.Run("compact-built", func(t *testing.T) {
		m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 32})
		if err := m.Set("a", []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete("a"); err != nil {
			t.Fatal(err)
		}
		s, err := fault.NewSchedule(1, fault.Rule{Point: FaultCompactBuilt, Kind: fault.Crash, On: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Arm()
		crashed := recoverCrash(t, func() error { return m.Compact() })
		s.Disarm()
		if !crashed {
			t.Fatal("armed crash did not fire")
		}
		// Dying mid-compaction loses nothing: the next compact rebuilds
		// from the same tables and publishes.
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if n, err := rd.Len(); err != nil || n != 0 {
			t.Fatalf("post-repair Len = %d, %v", n, err)
		}
	})
}

// TestFaultPointsExercised arms a yield rule on every regmap fault
// point, drives the code paths they sit on under concurrent readers,
// and then asserts (a) every point actually observed hits and (b) no
// regmap point is left in the never-armed set — the in-suite version of
// the chaos binary's coverage check.
func TestFaultPointsExercised(t *testing.T) {
	points := []*fault.Point{
		faultValuePublish, faultDirPrepublish, faultDirPublish,
		faultSlotStore, faultDeleteRecycle, faultCompactBuilt, faultCompactPublish,
	}
	rules := make([]fault.Rule, len(points))
	before := make([]uint64, len(points))
	for i, p := range points {
		rules[i] = fault.Rule{Point: p.Name(), Kind: fault.Yield, Every: 2}
		before[i] = p.Hits()
	}
	s, err := fault.NewSchedule(42, rules...)
	if err != nil {
		t.Fatal(err)
	}
	m := newMap(t, Config{Shards: 1, MaxReaders: 3, MaxValueSize: 32})
	s.Arm()
	defer s.Disarm()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			for !stop.Load() {
				for i := 0; i < 4; i++ {
					if _, err := rd.Get(fmt.Sprintf("k%d", i)); err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("reader: %v", err)
						return
					}
				}
				if _, err := rd.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		k := fmt.Sprintf("k%d", round%4)
		if err := m.Set(k, verVal(uint64(round))); err != nil {
			t.Fatal(err)
		}
		if err := m.Set(k, verVal(uint64(round)+1)); err != nil {
			t.Fatal(err)
		}
		if round%3 == 2 {
			if err := m.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		if round%50 == 49 {
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	for i, p := range points {
		if p.Hits() == before[i] {
			t.Errorf("fault point %q saw no hits under churn", p.Name())
		}
	}
	_, unarmed := fault.Coverage()
	for _, name := range unarmed {
		if strings.HasPrefix(name, "regmap/") {
			t.Errorf("regmap fault point %q never armed by any schedule", name)
		}
	}
}
