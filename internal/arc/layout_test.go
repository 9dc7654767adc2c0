package arc

import (
	"testing"
	"unsafe"

	"arcreg/internal/pad"
	"arcreg/internal/register"
)

// TestRegisterLayout pins the unpadded register layout by address. Every
// RMW target — current, freeHint, each slot's r_start and r_end — lies
// inside the 192-byte header or its own 48-byte slot, so a register costs
// 192 + 48·(N+2) bytes besides its value buffers, which is what a map
// holding many cold keys needs. Re-padding a counter (a pad.PaddedUint64
// is 128 B) fails here, and so does moving a header field a read touches
// off the header's first cache line. The sizes are those of 64-bit
// platforms.
func TestRegisterLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	cfg := register.Config{MaxReaders: 4, MaxValueSize: 64}
	r, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const headerBytes, slotBytes = 192, 48
	if size := unsafe.Sizeof(*r); size != headerBytes {
		t.Errorf("Register is %d B, want %d (a whole number of lines in its own size class)", size, headerBytes)
	}
	if size := unsafe.Sizeof(r.slots[0]); size != slotBytes {
		t.Errorf("slot is %d B, want %d", size, slotBytes)
	}
	if reg, _ := Footprint(cfg, Options{}); reg != headerBytes+slotBytes*len(r.slots) {
		t.Errorf("Footprint reg = %d B, want %d", reg, headerBytes+slotBytes*len(r.slots))
	}

	within := func(what string, p unsafe.Pointer, base unsafe.Pointer, size uintptr) {
		t.Helper()
		if a, lo := uintptr(p), uintptr(base); a < lo || a+8 > lo+size {
			t.Errorf("%s at %#x lies outside [%#x, %#x)", what, a, lo, lo+size)
		}
	}
	header := unsafe.Pointer(r)
	within("current", unsafe.Pointer(&r.current), header, pad.CacheLineSize)
	within("freeHint", unsafe.Pointer(&r.freeHint), header, pad.CacheLineSize)
	for i := range r.slots {
		s := &r.slots[i]
		within("r_start", unsafe.Pointer(&s.rStart), unsafe.Pointer(s), slotBytes)
		within("r_end", unsafe.Pointer(&s.rEnd), unsafe.Pointer(s), slotBytes)
	}

	// The read path's header fields share the first line with current
	// and freeHint only; the writer's per-write plain stores (seq,
	// lastSlot, wstats) start on the next line.
	if end := unsafe.Offsetof(r.opts) + unsafe.Sizeof(r.opts); end > pad.CacheLineSize {
		t.Errorf("read-path header ends at byte %d, beyond the first %d-B line", end, pad.CacheLineSize)
	}
	if off := unsafe.Offsetof(r.seq); off < pad.CacheLineSize {
		t.Errorf("seq starts at byte %d, inside the read path's first line", off)
	}
}
