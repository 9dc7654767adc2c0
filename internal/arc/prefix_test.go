package arc

// Tests of the published prefix: W1 searches the slots published so
// far, a fixed-buffer slot gets its buffer when the prefix grows onto
// it, and free slots leave the prefix's top again, so a register's
// buffers follow the versions readers hold rather than N.

import (
	"fmt"
	"runtime"
	"testing"

	"arcreg/internal/membuf"
)

// heapGrowth runs build between two collections and returns how many
// live heap bytes it left behind.
func heapGrowth(build func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// slotsUsed reads the register node's slots_used counter.
func slotsUsed(t *testing.T, r *Register) uint64 {
	t.Helper()
	v, ok := r.Stats().Get("slots_used")
	if !ok {
		t.Fatalf("register Stats has no slots_used:\n%s", r.Stats().String())
	}
	return v
}

// TestFixedBufferFootprint builds a feed-shaped register — 4,096 reader
// handles over a 4-KiB value, one write, every handle read once — and
// bounds its heap at 2 MiB. Every handle holds the same version, so the
// register needs two buffers; one MaxValueSize buffer per slot would be
// 4,098 of them, ~19 MiB.
func TestFixedBufferFootprint(t *testing.T) {
	const readers, size, bound = 4096, 4096, 2 << 20
	val := make([]byte, size)
	membuf.Encode(val, 1)
	var r *Register
	var rds []*Reader
	grew := heapGrowth(func() {
		r = newReg(t, readers, size, Options{})
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
		rds = make([]*Reader, readers)
		for i := range rds {
			rd, err := r.NewReaderHandle()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rd.View(); err != nil {
				t.Fatal(err)
			}
			rds[i] = rd
		}
	})
	t.Logf("%d-reader, %d-B register, every handle read once: %.2f MiB of heap, %d slots used",
		readers, size, float64(grew)/(1<<20), int(r.used.Load()))
	if grew > bound {
		t.Fatalf("register grew the heap by %d B, want <= %d", grew, bound)
	}
	if n := r.FixedBuffers(); n != 2 {
		t.Fatalf("register holds %d buffers, want 2 (the initial and the written value)", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(rds)
}

// TestFixedBufferRetention reads a 64-reader register in four groups,
// one group after each write, so the handles pin at most four distinct
// versions. The register must then hold at most 4+2 buffers, however
// many writes it takes; N+2 would be 66. Under DynamicBuffers the same
// bound holds for the prefix and the buffers W3 has not dropped.
func TestFixedBufferRetention(t *testing.T) {
	const readers, groups, writes = 64, 4, 400
	for _, opts := range []Options{{}, {DynamicBuffers: true}} {
		r := newReg(t, readers, 256, opts)
		rds := make([]*Reader, readers)
		for i := range rds {
			rd, err := r.NewReaderHandle()
			if err != nil {
				t.Fatal(err)
			}
			rds[i] = rd
		}
		buf := make([]byte, 256)
		for w := 0; w < writes; w++ {
			membuf.Encode(buf, uint64(w+1))
			if err := r.Write(buf); err != nil {
				t.Fatal(err)
			}
			g := w % groups
			for _, rd := range rds[g*readers/groups : (g+1)*readers/groups] {
				v, err := rd.View()
				if err != nil {
					t.Fatal(err)
				}
				if ver, err := membuf.Verify(v); err != nil || ver != uint64(w+1) {
					t.Fatalf("write %d: read version %d (%v)", w+1, ver, err)
				}
			}
			if used := int(r.used.Load()); used > groups+2 {
				t.Fatalf("DynamicBuffers=%v, write %d: %d slots used with at most %d versions pinned, want <= %d",
					opts.DynamicBuffers, w+1, used, groups, groups+2)
			}
			if n := liveBuffers(r); n > groups+2 {
				t.Fatalf("DynamicBuffers=%v, write %d: %d buffers with at most %d versions pinned, want <= %d",
					opts.DynamicBuffers, w+1, n, groups, groups+2)
			}
		}
		t.Logf("DynamicBuffers=%v: %d of %d slots used, %d buffers after %d writes",
			opts.DynamicBuffers, int(r.used.Load()), r.SlotCount(), liveBuffers(r), writes)
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// versions publishes consecutive membuf versions into a register.
type versions struct {
	t   *testing.T
	r   *Register
	buf []byte
	ver uint64 // the last version written
}

func newVersions(t *testing.T, r *Register) *versions {
	return &versions{t: t, r: r, buf: make([]byte, r.MaxValueSize())}
}

func (v *versions) write() {
	v.t.Helper()
	v.ver++
	membuf.Encode(v.buf, v.ver)
	if err := v.r.Write(v.buf); err != nil {
		v.t.Fatalf("write %d: %v", v.ver, err)
	}
}

// read reads through rd and checks it returns an intact want.
func read(t *testing.T, rd *Reader, want uint64) []byte {
	t.Helper()
	v, err := rd.View()
	if err != nil {
		t.Fatal(err)
	}
	if ver, err := membuf.Verify(v); err != nil || ver != want {
		t.Fatalf("read version %d (%v), want %d", ver, err, want)
	}
	return v
}

// spike staggers n fresh handles over n distinct versions, then writes
// until the prefix spans all n+2 slots, and checks that every handle's
// view still reads its version. It returns the handles and their views.
func spike(t *testing.T, w *versions, n int) ([]*Reader, [][]byte) {
	t.Helper()
	rds := make([]*Reader, n)
	views := make([][]byte, n)
	pinned := make([]uint64, n)
	for i := range rds {
		w.write()
		rd, err := w.r.NewReaderHandle()
		if err != nil {
			t.Fatal(err)
		}
		rds[i], views[i], pinned[i] = rd, read(t, rd, w.ver), w.ver
	}
	for slotsUsed(t, w.r) < uint64(n+2) {
		if w.ver > 1000 {
			t.Fatalf("slots_used = %d after %d writes with %d distinct versions pinned, want N+2 = %d",
				slotsUsed(t, w.r), w.ver, n, n+2)
		}
		w.write()
	}
	for i, v := range views {
		if ver, err := membuf.Verify(v); err != nil || ver != pinned[i] {
			t.Fatalf("reader %d's pinned view reads version %d (%v), want %d", i, ver, err, pinned[i])
		}
	}
	return rds, views
}

// TestPrefixWorstCase staggers N = 8 readers so they pin 8 distinct
// versions: the prefix must then grow to exactly N+2 slots, every one
// with its buffer, and the writer must keep succeeding from there
// without disturbing a pinned view — no trim may take a held slot.
// slots_used reads 1 after New and 2 after the first write.
func TestPrefixWorstCase(t *testing.T) {
	const n = 8
	r := newReg(t, n, 64, Options{})
	if used := slotsUsed(t, r); used != 1 {
		t.Fatalf("slots_used = %d after New, want 1", used)
	}
	w := newVersions(t, r)
	w.write()
	if used := slotsUsed(t, r); used != 2 {
		t.Fatalf("slots_used = %d after one write, want 2", used)
	}
	_, views := spike(t, w, n)
	for w.ver < 1000 {
		w.write()
	}
	if used := slotsUsed(t, r); used != n+2 {
		t.Fatalf("slots_used = %d with %d distinct versions pinned, want exactly N+2 = %d", used, n, n+2)
	}
	if got := liveBuffers(r); got != n+2 {
		t.Fatalf("%d slots hold a buffer, want %d", got, n+2)
	}
	for i, v := range views {
		if ver, err := membuf.Verify(v); err != nil || ver != uint64(i+2) {
			t.Fatalf("reader %d's pinned view reads version %d (%v), want %d", i, ver, err, i+2)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixShrinksAfterSpike pins N distinct versions until the prefix
// spans all N+2 slots, then has the readers move on: re-reading after
// every write, or after every 4th. Within 4(N+2) writes the prefix must
// be back to at most 3 slots and the register must hold at most 3
// buffers — where a prefix that only grows stays at N+2. A third
// schedule documents the trim's limit: readers that read once after the
// spike converge on the freshest slot, and parked there they pin the
// prefix, as no trim passes a held slot. For it only safety is asserted
// — every parked view intact, the invariants kept — and the prefix the
// park leaves is logged.
func TestPrefixShrinksAfterSpike(t *testing.T) {
	const park = 0 // re-read schedule: once, then never again
	for _, n := range []int{8, 64} {
		for _, opts := range []Options{{}, {DynamicBuffers: true}} {
			for _, every := range []int{1, 4, park} {
				t.Run(fmt.Sprintf("N=%d,dynamic=%v,reread=%d", n, opts.DynamicBuffers, every), func(t *testing.T) {
					r := newReg(t, n, 64, opts)
					w := newVersions(t, r)
					rds, _ := spike(t, w, n)
					views := make([][]byte, n)
					var parked uint64
					settled := 0
					for i := 1; i <= 4*(n+2); i++ {
						w.write()
						if (every == park && i == 1) || (every != park && i%every == 0) {
							for j, rd := range rds {
								views[j] = read(t, rd, w.ver)
							}
							parked = w.ver
						}
						if settled == 0 && slotsUsed(t, r) <= 3 && liveBuffers(r) <= 3 {
							settled = i
						}
						if err := r.CheckInvariants(); err != nil {
							t.Fatalf("write %d after the spike: %v", i, err)
						}
					}
					used, held := slotsUsed(t, r), liveBuffers(r)
					if every == park {
						for j, v := range views {
							if ver, err := membuf.Verify(v); err != nil || ver != parked {
								t.Fatalf("reader %d's parked view reads version %d (%v), want %d", j, ver, err, parked)
							}
						}
						t.Logf("readers parked on slot %d: %d slots, %d buffers after %d writes",
							rds[0].lastIndex, used, held, 4*(n+2))
						return
					}
					t.Logf("prefix back to %d slots within %d writes; %d slots, %d buffers after %d",
						used, settled, used, held, 4*(n+2))
					if used > 3 || held > 3 {
						t.Fatalf("%d slots used and %d buffers held %d writes after the readers moved on, want <= 3 each",
							used, held, 4*(n+2))
					}
				})
			}
		}
	}
}

// TestPrefixStaleHint: a reader's §3.4 hint can name a slot that a trim
// has since taken out of the prefix. W1 must reject it by its idx < used
// check and write inside the prefix, leaving the trimmed slot free,
// zeroed and unpublished.
func TestPrefixStaleHint(t *testing.T) {
	const n = 4
	r := newReg(t, n, 64, Options{})
	w := newVersions(t, r)
	rds, _ := spike(t, w, n)
	for range 16 {
		w.write()
		for _, rd := range rds {
			read(t, rd, w.ver)
		}
	}
	stale := uint32(r.SlotCount() - 1)
	if used := r.used.Load(); used > stale {
		t.Fatalf("prefix still spans %d of %d slots after the readers moved on", used, r.SlotCount())
	}
	hits := r.WriteStats().HintHits
	r.freeHint.Store(int64(stale))
	w.write()
	if got := r.WriteStats().HintHits; got != hits {
		t.Fatalf("W1 took the hint naming trimmed slot %d (prefix %d)", stale, r.used.Load())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, rd := range rds {
		read(t, rd, w.ver)
	}
}

// TestPrefixOscillation makes the readers' need cross the prefix top by
// one slot, again and again: a reader re-reads after every write but one
// in 16, so the writer needs a third slot once a cycle and trims it when
// the reader moves on. The prefix must follow the need both ways every
// cycle, FixedBuffers must count the buffers held after every write, and
// a growth's buffer must be the only allocation: one per cycle, since a
// trimmed slot drops its buffer and its next growth allocates a new one.
func TestPrefixOscillation(t *testing.T) {
	const cycle, runs = 16, 63
	r := newReg(t, 2, 4096, Options{})
	rd, err := r.NewReaderHandle()
	if err != nil {
		t.Fatal(err)
	}
	w := newVersions(t, r)
	var grew, shrank, miscounted int
	oscillate := func() {
		for i := range cycle {
			before := r.used.Load()
			w.write()
			switch after := r.used.Load(); {
			case after > before:
				grew++
			case after < before:
				shrank++
			}
			if r.FixedBuffers() != liveBuffers(r) {
				miscounted++
			}
			if i != cycle/2 {
				read(t, rd, w.ver)
			}
		}
	}
	oscillate() // warm-up
	grew, shrank = 0, 0
	allocs := testing.AllocsPerRun(runs, oscillate)
	t.Logf("%d writes: prefix grew %d and shrank %d times, %.2f allocations per %d-write cycle",
		(runs+1)*cycle, grew, shrank, allocs, cycle)
	if grew != runs+1 || shrank != runs+1 {
		t.Fatalf("prefix grew %d and shrank %d times over %d cycles, want once each per cycle",
			grew, shrank, runs+1)
	}
	if miscounted != 0 {
		t.Fatalf("FixedBuffers disagreed with the buffers held after %d writes", miscounted)
	}
	if allocs != 1 {
		t.Fatalf("oscillating prefix allocates %.2f times per %d-write cycle, want 1 (the growth's buffer)", allocs, cycle)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
