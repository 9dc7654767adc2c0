package regmap

// Lifecycle tests: tombstone deletion semantics (miss-after-delete,
// recreate-after-delete, no stale resurrection, slot reuse), the atomic
// multi-key snapshot (model equivalence, cross-shard linearization
// invariants), and the snapshot-vs-concurrent-delete race (run under
// -race in CI).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"arcreg/internal/register"
)

// TestDeleteSemantics pins the deletion contract: miss after delete,
// Fresh false, Len/Keys shrink, deleting an absent key errors, and the
// map keeps working afterwards.
func TestDeleteSemantics(t *testing.T) {
	m := newMap(t, Config{Shards: 4, MaxReaders: 2, MaxValueSize: 64})
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if err := m.Delete("never"); err != ErrKeyNotFound {
		t.Fatalf("Delete(absent) = %v, want ErrKeyNotFound", err)
	}
	for i := 0; i < 16; i++ {
		if err := m.Set(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Set("k05", []byte("updated")); err != nil { // one value publish
		t.Fatal(err)
	}
	if _, err := rd.Get("k05"); err != nil {
		t.Fatal(err)
	}
	if got := m.WriteStats().Value.Ops; got != 1 {
		t.Fatalf("Value.Ops before delete = %d, want 1", got)
	}
	if err := m.Delete("k05"); err != nil {
		t.Fatal(err)
	}
	// The retired register's counters leave the aggregate at the Delete.
	if got := m.WriteStats().Value.Ops; got != 0 {
		t.Fatalf("Value.Ops after delete = %d, want 0", got)
	}
	if _, err := rd.Get("k05"); err != ErrKeyNotFound {
		t.Fatalf("Get after delete = %v, want ErrKeyNotFound", err)
	}
	if rd.Fresh("k05") {
		t.Error("deleted key reports fresh")
	}
	if m.Len() != 15 {
		t.Fatalf("Map.Len after delete = %d, want 15", m.Len())
	}
	if n, err := rd.Len(); err != nil || n != 15 {
		t.Fatalf("Reader.Len after delete = %d, %v", n, err)
	}
	keys, err := rd.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k == "k05" {
			t.Error("deleted key still enumerated")
		}
	}
	if len(keys) != 15 {
		t.Fatalf("Keys after delete = %d entries", len(keys))
	}
	if err := m.Delete("k05"); err != ErrKeyNotFound {
		t.Fatalf("double Delete = %v, want ErrKeyNotFound", err)
	}
	// The rest of the shard keeps working.
	if v, err := rd.Get("k06"); err != nil || string(v) != "v06" {
		t.Fatalf("neighbor Get after delete = %q, %v", v, err)
	}
	ws := m.WriteStats()
	if ws.Deletes != 1 || ws.Keys != 16 {
		t.Fatalf("WriteStats = %+v", ws)
	}
}

// TestRecreateAfterDelete pins the no-resurrection guarantee: a deleted
// then re-created key serves only its new value — to readers that
// observed the old one, to readers that never did, and through the
// freshness probe — even though its slot is reused.
func TestRecreateAfterDelete(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 64})
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if err := m.Set("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Get("k"); err != nil {
		t.Fatal(err)
	}
	sh := m.shards[0]
	slotsBefore := len(sh.wregs)
	if err := m.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := len(sh.wregs); got != slotsBefore {
		t.Fatalf("recreation did not reuse the slot: %d slots, was %d", got, slotsBefore)
	}
	if got := sh.wgens[0]; got != 2 {
		t.Fatalf("slot generation = %d, want 2", got)
	}
	v, err := rd.Get("k")
	if err != nil || string(v) != "new" {
		t.Fatalf("Get after recreate = %q, %v (stale resurrection?)", v, err)
	}
	// A late reader decodes the full log and lands on the new value too.
	rd2, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	if v, err := rd2.Get("k"); err != nil || string(v) != "new" {
		t.Fatalf("late reader Get = %q, %v", v, err)
	}
	// Another delete/recreate cycle with a different key reusing the slot.
	if err := m.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("other", []byte("third")); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Get("k"); err != ErrKeyNotFound {
		t.Fatalf("Get of deleted key after slot handoff = %v", err)
	}
	if v, err := rd.Get("other"); err != nil || string(v) != "third" {
		t.Fatalf("Get of slot successor = %q, %v", v, err)
	}
}

// TestSlotReuseNeverCrossesKeys is slot reuse under concurrency: on one
// shard a writer deletes one of two keys and creates the other 20,000
// times, so the two keys trade one slot, each incarnation seeded with
// "<key>:<n>". Two readers Get both keys throughout and fail on any
// value that names the other key — what a reader would return if it
// decoded a log against slot arrays from another publication — and on
// any error but a miss.
func TestSlotReuseNeverCrossesKeys(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 64})
	keys := [2]string{"left", "right"}
	if err := m.Set(keys[0], []byte(keys[0]+":0")); err != nil {
		t.Fatal(err)
	}
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
				for _, k := range keys {
					v, err := rd.Get(k)
					if errors.Is(err, ErrKeyNotFound) {
						continue
					}
					if err != nil {
						t.Errorf("Get(%q): %v", k, err)
						return
					}
					if !bytes.HasPrefix(v, []byte(k+":")) {
						t.Errorf("Get(%q) = %q: another key's incarnation", k, v)
						return
					}
				}
			}
		}()
	}
	for n := 1; n <= 20000; n++ {
		gone, next := keys[(n+1)%2], keys[n%2]
		if err := m.Delete(gone); err != nil {
			t.Fatal(err)
		}
		if err := m.Set(next, []byte(fmt.Sprintf("%s:%d", next, n))); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := len(m.shards[0].wregs); n != 1 {
		t.Fatalf("the keys used %d slots, want 1 traded slot", n)
	}
}

// TestDeletePreservesHeldViews pins the aliasing rule under deletion: a
// view obtained before the delete stays intact (the retired register is
// never written again), and hot Gets of other keys return to the
// zero-RMW fast path after the directory settles.
func TestDeletePreservesHeldViews(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 64})
	m.Set("doomed", []byte("last-value"))
	m.Set("hot", []byte("hot-value"))
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	view, err := rd.Get("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("replacement", []byte("xxxxxxxxxx")); err != nil { // reuses the slot
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := rd.Get("replacement"); err != nil {
			t.Fatal(err)
		}
	}
	if string(view) != "last-value" {
		t.Fatalf("held view of deleted key corrupted to %q", view)
	}
	// Steady state after the churn: hot Gets are zero-RMW again.
	if _, err := rd.Get("hot"); err != nil {
		t.Fatal(err)
	}
	base := rd.Stats()
	for i := 0; i < 100; i++ {
		if _, err := rd.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.Stats()
	if st.RMW != base.RMW {
		t.Errorf("hot Gets after delete churn executed %d RMW", st.RMW-base.RMW)
	}
	if st.FastPath-base.FastPath != 100 {
		t.Errorf("fast-path Gets = %d, want 100", st.FastPath-base.FastPath)
	}
}

// TestReaderRecycleChurnBounded: a long-lived Reader that observes a key
// deleted and re-created 100k times must not keep a handle (and through
// it the register) of every incarnation: a decode commit closes the
// displaced handle, so the heap stays flat apart from directory-log
// growth. Keeping them until Close held 99,999 handles and +55 MiB
// here. The view taken before the churn must survive it byte for byte,
// for fixed and dynamic values alike, while the first incarnation's
// register has its handle back.
func TestReaderRecycleChurnBounded(t *testing.T) {
	const cycles, bound = 100_000, 4 << 20
	for _, dynamic := range []bool{false, true} {
		t.Run(fmt.Sprintf("dynamic=%v", dynamic), func(t *testing.T) {
			m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 32, DynamicValues: dynamic})
			rd, err := m.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if err := m.Set("k", []byte("first-incarnation")); err != nil {
				t.Fatal(err)
			}
			view, err := rd.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			sh := m.shards[m.ShardOf("k")]
			first := sh.wregs[sh.index["k"]]
			val := make([]byte, 32)
			grew := heapGrowth(func() {
				for i := 0; i < cycles; i++ {
					if err := m.Delete("k"); err != nil {
						t.Fatal(err)
					}
					binary.LittleEndian.PutUint64(val, uint64(i))
					if err := m.Set("k", val); err != nil {
						t.Fatal(err)
					}
					if v, err := rd.Get("k"); err != nil || !bytes.Equal(v, val) {
						t.Fatalf("cycle %d: Get = %x, %v; want %x", i, v, err, val)
					}
				}
			})
			if string(view) != "first-incarnation" {
				t.Fatalf("view taken before the churn now reads %q", view)
			}
			if n := first.LiveReaders(); n != 0 {
				t.Fatalf("the first incarnation's register still has %d live handles", n)
			}
			t.Logf("%d delete/re-create cycles grew the heap %d B", cycles, grew)
			if grew > bound {
				t.Fatalf("%d delete/re-create cycles through one reader grew the heap %d B, want <= %d",
					cycles, grew, bound)
			}
		})
	}
}

// TestSnapshotModel checks Snapshot against a model map through a
// scripted add/update/delete history, including the empty map.
func TestSnapshotModel(t *testing.T) {
	m := newMap(t, Config{Shards: 4, MaxReaders: 1, MaxValueSize: 64})
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	check := func(model map[string]string) {
		t.Helper()
		snap, err := rd.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != len(model) {
			t.Fatalf("snapshot has %d keys, model %d", len(snap), len(model))
		}
		for k, want := range model {
			if got, ok := snap[k]; !ok || string(got) != want {
				t.Fatalf("snapshot[%q] = %q (%v), want %q", k, got, ok, want)
			}
		}
	}

	check(map[string]string{})
	model := map[string]string{}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)
		if err := m.Set(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	check(model)
	for i := 0; i < 40; i += 3 {
		k := fmt.Sprintf("k%02d", i)
		if err := m.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}
	check(model)
	for i := 0; i < 40; i += 6 {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("r%02d", i)
		if err := m.Set(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	check(model)
	// Snapshot copies: mutating the result must not affect the map.
	snap, _ := rd.Snapshot()
	for _, v := range snap {
		for i := range v {
			v[i] = 'X'
		}
	}
	check(model)
	st := rd.Stats()
	if st.Snapshots == 0 {
		t.Error("snapshots not counted")
	}
	if st.SnapshotRetries != 0 {
		t.Errorf("quiescent snapshots retried %d times", st.SnapshotRetries)
	}
}

// TestSnapshotZeroRMWSteadyState pins the snapshot cost model: with no
// concurrent publications, a second snapshot of an unchanged map
// executes zero RMW instructions (every per-key read is ARC's one-load
// fast path) and completes in one pass.
func TestSnapshotZeroRMWSteadyState(t *testing.T) {
	m := newMap(t, Config{Shards: 4, MaxReaders: 1, MaxValueSize: 64})
	for i := 0; i < 64; i++ {
		if err := m.Set(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Snapshot(); err != nil { // first pass pays the acquisitions
		t.Fatal(err)
	}
	base := rd.Stats()
	for i := 0; i < 10; i++ {
		if _, err := rd.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.Stats()
	if st.RMW != base.RMW {
		t.Errorf("steady-state snapshots executed %d RMW instructions, want 0", st.RMW-base.RMW)
	}
	if st.SnapshotRetries != base.SnapshotRetries {
		t.Errorf("steady-state snapshots retried %d times", st.SnapshotRetries-base.SnapshotRetries)
	}
}

// TestSnapshotAtomicityUnderConcurrency is the -race acceptance test:
// per-shard writers continuously update, delete and re-create keys while
// readers take snapshots. Two invariants certify the point-in-time
// guarantee:
//
//  1. version chain: each writer bumps a version and writes it to all
//     its keys in order, so at every instant the versions of one
//     writer's keys form a non-increasing sequence that drops by at most
//     one end to end; every snapshot must preserve that.
//  2. flap pairs: each writer deletes and re-creates a (flapA, flapB)
//     pair strictly in the order "delete A, delete B, create B', create
//     A'" with matching payloads; a snapshot may cut anywhere, but if it
//     contains A it must contain the matching B (A is only ever present
//     while B is).
func TestSnapshotAtomicityUnderConcurrency(t *testing.T) {
	const (
		shards  = 4
		chain   = 5
		rounds  = 300
		readers = 2
	)
	m := newMap(t, Config{Shards: shards, MaxReaders: readers, MaxValueSize: 64})

	// Pre-assign chain keys per shard (the version-chain invariant needs
	// all of one writer's keys on one shard to honor single-writer).
	chainKeys := make([][]string, shards)
	flapA := make([]string, shards)
	flapB := make([]string, shards)
	for si := 0; si < shards; si++ {
		for i := 0; len(chainKeys[si]) < chain; i++ {
			k := fmt.Sprintf("chain-%d-%d", si, i)
			if m.ShardOf(k) == si {
				chainKeys[si] = append(chainKeys[si], k)
			}
		}
		for i := 0; ; i++ {
			k := fmt.Sprintf("flapA-%d-%d", si, i)
			if m.ShardOf(k) == si {
				flapA[si] = k
				break
			}
		}
		for i := 0; ; i++ {
			k := fmt.Sprintf("flapB-%d-%d", si, i)
			if m.ShardOf(k) == si {
				flapB[si] = k
				break
			}
		}
	}
	enc := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	for si := 0; si < shards; si++ {
		for _, k := range chainKeys[si] {
			if err := m.Set(k, enc(0)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, shards+readers)
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for v := uint64(1); v <= rounds; v++ {
				for _, k := range chainKeys[si] {
					if err := m.Set(k, enc(v)); err != nil {
						errs <- err
						return
					}
				}
				// Flap cycle: A exists only while B exists.
				if v%2 == 0 {
					if err := m.Set(flapB[si], enc(v)); err != nil {
						errs <- err
						return
					}
					if err := m.Set(flapA[si], enc(v)); err != nil {
						errs <- err
						return
					}
				} else if v > 1 {
					if err := m.Delete(flapA[si]); err != nil {
						errs <- err
						return
					}
					if err := m.Delete(flapB[si]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(si)
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		rg.Add(1)
		go func(rd *Reader) {
			defer rg.Done()
			defer rd.Close()
			lastV := make([]uint64, shards)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := rd.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				for si := 0; si < shards; si++ {
					// Invariant 1: non-increasing version chain, drop ≤ 1,
					// and monotone across snapshots.
					var first, prev uint64
					for i, k := range chainKeys[si] {
						b, ok := snap[k]
						if !ok || len(b) != 8 {
							errs <- fmt.Errorf("snapshot lost chain key %q", k)
							return
						}
						v := binary.LittleEndian.Uint64(b)
						if i == 0 {
							first, prev = v, v
							continue
						}
						if v > prev || first > v+1 {
							errs <- fmt.Errorf("torn snapshot: shard %d chain versions not a cut (%d then %d, first %d)", si, prev, v, first)
							return
						}
						prev = v
					}
					if first < lastV[si] {
						errs <- fmt.Errorf("snapshot regressed: shard %d version %d after %d", si, first, lastV[si])
						return
					}
					lastV[si] = first
					// Invariant 2: A present ⟹ B present with equal payload.
					if a, ok := snap[flapA[si]]; ok {
						b, ok := snap[flapB[si]]
						if !ok {
							errs <- fmt.Errorf("torn snapshot: shard %d has %q without %q", si, flapA[si], flapB[si])
							return
						}
						if !bytes.Equal(a, b) {
							errs <- fmt.Errorf("torn snapshot: flap payloads differ (%x vs %x)", a, b)
							return
						}
					}
				}
			}
		}(rd)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSnapshotClosedReader pins the closed-handle error.
func TestSnapshotClosedReader(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1})
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	rd.Close()
	if _, err := rd.Snapshot(); err != register.ErrReaderClosed {
		t.Fatalf("Snapshot after Close = %v", err)
	}
}

// TestDirectoryFullOnDelete pins the administrative ceiling's new
// semantics under compaction epochs: Delete always succeeds (at the
// ceiling the deletion folds into a compaction instead of appending a
// tombstone), and Set of a new key fails with ErrDirectoryFull only
// when the live set alone fills the ceiling — garbage never wedges the
// shard (DESIGN.md §9 records the protocol).
func TestDirectoryFullOnDelete(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 16})
	if err := m.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sh := m.shards[0]
	// Lower the enforced ceiling to the log's current size; restore after.
	saved := dirCapacity
	dirCapacity = len(sh.dirBuf)
	defer func() { dirCapacity = saved }()
	// The live set alone fills the ceiling: creating another key must
	// fail with the sentinel (compaction cannot shrink a garbage-free
	// log), and the failed Set must not leak writer state.
	if err := m.Set("k2", []byte("v")); !errors.Is(err, ErrDirectoryFull) {
		t.Fatalf("Set on a full garbage-free directory = %v, want ErrDirectoryFull", err)
	}
	if _, ok := sh.index["k2"]; ok {
		t.Fatal("failed Set left the key in the writer index")
	}
	// Delete at the ceiling folds into a compaction epoch and succeeds.
	if err := m.Delete("k"); err != nil {
		t.Fatalf("Delete at the ceiling = %v, want success via compaction", err)
	}
	if _, ok := sh.index["k"]; ok {
		t.Fatal("Delete left the key in the writer index")
	}
	if sh.compactions == 0 {
		t.Fatal("ceiling Delete did not compact")
	}
	// The compacted log is empty again: the shard took the deletion and
	// (under a ceiling with room for one entry's conservative varint
	// pre-check) accepts a re-creation — no wedged-forever state.
	dirCapacity = len(sh.dirBuf) + addEntryMax("k3")
	if err := m.Set("k3", []byte("v")); err != nil {
		t.Fatalf("Set after ceiling Delete = %v", err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if v, err := rd.Get("k3"); err != nil || string(v) != "v" {
		t.Fatalf("Get(k3) after compaction = %q, %v", v, err)
	}
	if _, err := rd.Get("k"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get(k) after compacted delete = %v, want ErrKeyNotFound", err)
	}
}
