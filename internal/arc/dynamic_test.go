package arc

// Tests of the DynamicBuffers variant (§3.3: per-write exact-size
// allocation with GC reclamation).

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"arcreg/internal/membuf"
	"arcreg/internal/register"
)

func newDyn(t testing.TB, readers, size int) *Register {
	t.Helper()
	r, err := New(register.Config{MaxReaders: readers, MaxValueSize: size},
		Options{DynamicBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDynamicRoundTrip(t *testing.T) {
	r := newDyn(t, 2, 1<<20) // 1MB cap, but nothing near that allocated
	rd, _ := r.NewReaderHandle()
	for i := 0; i < 100; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
		got, err := rd.View()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("iteration %d: mismatch", i)
		}
		// Exact-size property: the view's capacity is the value size, not
		// MaxValueSize.
		if cap(got) > len(val)+64 {
			t.Fatalf("iteration %d: buffer capacity %d for a %d-byte value; not exact-size",
				i, cap(got), len(val))
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicInitialValue(t *testing.T) {
	r, err := New(register.Config{MaxReaders: 1, MaxValueSize: 1 << 20, Initial: []byte("tiny")},
		Options{DynamicBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := r.NewReaderHandle()
	v, _ := rd.View()
	if string(v) != "tiny" {
		t.Fatalf("initial = %q", v)
	}
}

// A stale view must stay intact even after its slot is recycled: with
// dynamic buffers the writer installs a NEW buffer into the slot, so the
// old bytes are immortal until the view drops them (GC reclamation).
func TestDynamicStaleViewImmortal(t *testing.T) {
	r := newDyn(t, 2, 4096)
	pinned, _ := r.NewReaderHandle()
	buf := make([]byte, 256)
	membuf.Encode(buf, 1)
	if err := r.Write(buf); err != nil {
		t.Fatal(err)
	}
	view, _ := pinned.View()

	// Move the pinned reader on so its old slot CAN be recycled…
	for i := uint64(2); i < 50; i++ {
		membuf.Encode(buf, i)
		if err := r.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pinned.View(); err != nil { // releases the old slot
		t.Fatal(err)
	}
	for i := uint64(50); i < 100; i++ { // recycle every slot several times
		membuf.Encode(buf, i)
		if err := r.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	// …and the stale view still verifies: the slot was reused but its old
	// buffer was never overwritten.
	if v, err := membuf.Verify(view); err != nil || v != 1 {
		t.Fatalf("stale view corrupted: version=%d err=%v", v, err)
	}
}

// liveBuffers counts the register's slots that still hold a value buffer.
func liveBuffers(r *Register) int {
	n := 0
	for i := range r.slots {
		if r.slots[i].content != nil {
			n++
		}
	}
	return n
}

// W3 releases a retired slot's buffer when no reader acquired the slot,
// so buffers live only where a reader can reach them: written with no
// reads, a register keeps the current buffer alone; with one reader
// parked on a retired slot, that slot's buffer too. Keeping each slot's
// last buffer until reuse would hold all N+2.
func TestDynamicBufferRetention(t *testing.T) {
	const readers, writes = 4, 20
	r := newDyn(t, readers, 64)
	write := func(i uint64) {
		t.Helper()
		buf := make([]byte, 64)
		membuf.Encode(buf, i)
		if err := r.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= writes; i++ {
		write(i)
	}
	if n := liveBuffers(r); n != 1 {
		t.Fatalf("after %d unread writes %d of %d slots hold a buffer, want 1", writes, n, r.SlotCount())
	}

	parked, _ := r.NewReaderHandle()
	view, err := parked.View()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), view...)
	for i := uint64(writes + 1); i <= 2*writes; i++ {
		write(i)
	}
	if n := liveBuffers(r); n != 2 {
		t.Fatalf("with one reader parked %d of %d slots hold a buffer, want 2", n, r.SlotCount())
	}
	if !bytes.Equal(view, before) {
		t.Fatal("the parked reader's view changed")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicConcurrentIntegrity(t *testing.T) {
	const (
		readers = 4
		writes  = 2000
	)
	r := newDyn(t, readers, 4096)
	seed := make([]byte, 64)
	membuf.Encode(seed, 0)
	if err := r.Write(seed); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		rd, _ := r.NewReaderHandle()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := rd.View()
				if err != nil {
					errs <- err
					return
				}
				ver, err := membuf.Verify(v)
				if err != nil {
					errs <- fmt.Errorf("torn dynamic read: %w", err)
					return
				}
				if ver < last {
					errs <- fmt.Errorf("version regressed: %d after %d", ver, last)
					return
				}
				last = ver
			}
		}()
	}
	// Vary sizes across writes — the point of the dynamic variant.
	for i := uint64(1); i <= writes; i++ {
		size := membuf.MinPayload + int(i%37)*64
		buf := make([]byte, size)
		membuf.Encode(buf, i)
		if err := r.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The pre-allocated variant must not allocate on writes; the dynamic
// variant allocates exactly once per write.
func TestWriteAllocations(t *testing.T) {
	static := newReg(t, 1, 4096, Options{})
	val := bytes.Repeat([]byte{7}, 512)
	if avg := testing.AllocsPerRun(200, func() {
		if err := static.Write(val); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("pre-allocated ARC writes allocate %.1f times/op, want 0", avg)
	}

	dyn := newDyn(t, 1, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		if err := dyn.Write(val); err != nil {
			t.Fatal(err)
		}
	}); avg > 1.5 {
		t.Errorf("dynamic ARC writes allocate %.1f times/op, want ~1", avg)
	}
}

// Reads never allocate in either variant.
func TestReadAllocations(t *testing.T) {
	for _, opts := range []Options{{}, {DynamicBuffers: true}} {
		r, err := New(register.Config{MaxReaders: 1, MaxValueSize: 4096}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Write([]byte("steady")); err != nil {
			t.Fatal(err)
		}
		rd, _ := r.NewReaderHandle()
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := rd.View(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("DynamicBuffers=%v: views allocate %.1f times/op, want 0",
				opts.DynamicBuffers, avg)
		}
	}
}
