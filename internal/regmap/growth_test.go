package regmap

// Key-creation cost and the invariant that makes it O(1): a shard's
// published directory logs and slot arrays are prefixes of the writer's
// append-only buffers, so appends must never write into bytes or
// elements a publication covers, and slot reuse must copy first.

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// TestAddKeyCostAmortizedConstant pins key creation at amortized O(1):
// the bytes allocated per add into a shard holding 16k–32k keys stay
// within 2x of those into a shard holding 1k–2k. Copying the slot
// arrays or the directory log per add makes the ratio grow with the key
// count (about 15x here). Allocated bytes are deterministic where wall
// time is not.
func TestAddKeyCostAmortizedConstant(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 64, DynamicValues: true})
	keys := make([]string, 32<<10)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	val := []byte("first value")
	add := func(from, to int) {
		for _, k := range keys[from:to] {
			if err := m.Set(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	bytesPerAdd := func(from, to int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		add(from, to)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(to-from)
	}
	add(0, 1<<10)
	small := bytesPerAdd(1<<10, 2<<10)
	add(2<<10, 16<<10)
	large := bytesPerAdd(16<<10, 32<<10)
	t.Logf("bytes per add: %.0f at 1k-2k keys, %.0f at 16k-32k keys (%.2fx)", small, large, large/small)
	if large >= 2*small {
		t.Fatalf("adds at 16k-32k keys allocate %.0f B each vs %.0f B at 1k-2k (%.1fx, want < 2x): key creation is not amortized O(1)",
			large, small, large/small)
	}
}

// TestPublishedStateImmutable captures a published directory state, then
// drives enough adds to move both backing arrays, a delete/recreate that
// reuses a slot, and a compaction. Every captured byte and element must
// stay as published: published states alias the writer's buffers, so
// any in-place rewrite would show here.
func TestPublishedStateImmutable(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 64, DynamicValues: true})
	sh := m.shards[0]
	for i := 0; i < 8; i++ {
		if err := m.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	el := sh.dir.Load()
	view := el.log
	if cap(view) != len(view) || cap(el.regs) != len(el.regs) || cap(el.gens) != len(el.gens) {
		t.Fatalf("published state not capped (log %d/%d, regs %d/%d, gens %d/%d): a reader could append into the writer's buffers",
			len(view), cap(view), len(el.regs), cap(el.regs), len(el.gens), cap(el.gens))
	}
	viewCopy := bytes.Clone(view)
	regsCopy, gensCopy := slices.Clone(el.regs), slices.Clone(el.gens)

	// Adds, in place at first, until both backing arrays have moved (an
	// append moves its slice exactly when it grows the capacity).
	dirCap, slotCap := cap(sh.dirBuf), cap(sh.wregs)
	grew := func() bool { return cap(sh.dirBuf) != dirCap && cap(sh.wregs) != slotCap }
	for i := 8; !grew(); i++ {
		if i > 1<<12 {
			t.Fatal("4k adds never moved the directory or slot backing arrays")
		}
		if err := m.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Delete and recreate k3: the recreation reuses slot 3 at the next
	// generation, which must not show through an earlier snapshot.
	slot := sh.index["k3"]
	before := sh.dir.Load()
	oldReg, oldGen := before.regs[slot], before.gens[slot]
	if err := m.Delete("k3"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("k3", []byte("again")); err != nil {
		t.Fatal(err)
	}
	if sh.index["k3"] != slot {
		t.Fatalf("recreated k3 at slot %d, want reuse of slot %d", sh.index["k3"], slot)
	}
	after := sh.dir.Load()
	if after.regs[slot] == oldReg || after.gens[slot] != oldGen+1 {
		t.Fatalf("reused slot %d: new state has gen %d (want %d) and the old register: %v",
			slot, after.gens[slot], oldGen+1, after.regs[slot] == oldReg)
	}
	if before.regs[slot] != oldReg || before.gens[slot] != oldGen {
		t.Fatalf("slot reuse rewrote an earlier state: slot %d gen %d -> %d", slot, oldGen, before.gens[slot])
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(view, viewCopy) {
		t.Fatalf("published directory log changed after appends:\n got %x\nwant %x", view, viewCopy)
	}
	if !slices.Equal(el.regs, regsCopy) || !slices.Equal(el.gens, gensCopy) {
		t.Fatal("published slot arrays changed after appends, reuse or compaction")
	}
	if !slices.Equal(before.regs[:len(el.regs)], el.regs) {
		t.Fatal("a later state disagrees with an earlier one on the slots both cover")
	}

	// The map still reads back correctly through a fresh reader.
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if v, err := rd.Get("k3"); err != nil || string(v) != "again" {
		t.Fatalf("Get(k3) = %q, %v", v, err)
	}
	if n, err := rd.Len(); err != nil || n != len(sh.index) {
		t.Fatalf("Len = %d, %v; want %d", n, err, len(sh.index))
	}
}
