package arc

// Tests of the published prefix: W1 searches the slots published so
// far, and a fixed-buffer slot gets its buffer on the write that first
// fills it, so a register's buffers follow the versions readers hold
// rather than N.

import (
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

// TestPrefixWorstCase staggers N = 8 readers so they pin 8 distinct
// versions: the prefix must then grow to exactly N+2 slots, every one
// with its buffer, and the writer must keep succeeding from there
// without disturbing a pinned view. slots_used reads 1 after New and 2
// after the first write.
func TestPrefixWorstCase(t *testing.T) {
	const n = 8
	r := newReg(t, n, 64, Options{})
	if used := slotsUsed(t, r); used != 1 {
		t.Fatalf("slots_used = %d after New, want 1", used)
	}
	buf := make([]byte, 64)
	write := func(ver uint64) {
		t.Helper()
		membuf.Encode(buf, ver)
		if err := r.Write(buf); err != nil {
			t.Fatalf("write %d: %v", ver, err)
		}
	}
	views := make([][]byte, n)
	rds := make([]*Reader, n)
	for i := range rds {
		write(uint64(i + 1))
		if i == 0 {
			if used := slotsUsed(t, r); used != 2 {
				t.Fatalf("slots_used = %d after one write, want 2", used)
			}
		}
		rd, err := r.NewReaderHandle()
		if err != nil {
			t.Fatal(err)
		}
		if views[i], err = rd.View(); err != nil {
			t.Fatal(err)
		}
		rds[i] = rd
	}
	for ver := uint64(n + 1); ver <= 1000; ver++ {
		write(ver)
	}
	if used := slotsUsed(t, r); used != n+2 {
		t.Fatalf("slots_used = %d with %d distinct versions pinned, want exactly N+2 = %d", used, n, n+2)
	}
	if got := liveBuffers(r); got != n+2 {
		t.Fatalf("%d slots hold a buffer, want %d", got, n+2)
	}
	for i, v := range views {
		if ver, err := membuf.Verify(v); err != nil || ver != uint64(i+1) {
			t.Fatalf("reader %d's pinned view reads version %d (%v), want %d", i, ver, err, i+1)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
