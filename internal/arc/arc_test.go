package arc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"arcreg/internal/membuf"
	"arcreg/internal/register"
)

func newReg(t testing.TB, readers, size int, opts Options) *Register {
	t.Helper()
	r, err := New(register.Config{MaxReaders: readers, MaxValueSize: size}, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestInitialValueDefault(t *testing.T) {
	r := newReg(t, 4, 64, Options{})
	rd, err := r.NewReaderHandle()
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.View()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte{0}) {
		t.Fatalf("initial value = %v, want the one-byte default", v)
	}
}

func TestInitialValueConfigured(t *testing.T) {
	init := []byte("hello register")
	r, err := New(register.Config{MaxReaders: 2, MaxValueSize: 64, Initial: init}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := r.NewReaderHandle()
	v, _ := rd.View()
	if !bytes.Equal(v, init) {
		t.Fatalf("initial value = %q, want %q", v, init)
	}
}

func TestReadReturnsLastWrite(t *testing.T) {
	r := newReg(t, 2, 128, Options{})
	rd, _ := r.NewReaderHandle()
	for i := 0; i < 100; i++ {
		val := []byte(fmt.Sprintf("value-%03d", i))
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
		got, err := rd.View()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("iteration %d: read %q, want %q", i, got, val)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVariableSizes(t *testing.T) {
	r := newReg(t, 2, 1024, Options{})
	rd, _ := r.NewReaderHandle()
	for _, n := range []int{1, 7, 64, 1024, 3, 0, 512} {
		val := bytes.Repeat([]byte{byte(n)}, n)
		if err := r.Write(val); err != nil {
			t.Fatalf("Write(%d bytes): %v", n, err)
		}
		got, _ := rd.View()
		if len(got) != n {
			t.Fatalf("read %d bytes, want %d", len(got), n)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("content mismatch at size %d", n)
		}
	}
}

func TestWriteTooLarge(t *testing.T) {
	r := newReg(t, 2, 16, Options{})
	err := r.Write(make([]byte, 17))
	if !errors.Is(err, register.ErrValueTooLarge) {
		t.Fatalf("want ErrValueTooLarge, got %v", err)
	}
	// The register must still work after a rejected write.
	if err := r.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestReadCopies(t *testing.T) {
	r := newReg(t, 2, 64, Options{})
	rd, _ := r.NewReaderHandle()
	if err := r.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	n, err := rd.Read(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(dst[:n]) != "abcdef" {
		t.Fatalf("Read copied %q", dst[:n])
	}
	// Too-small destination reports the needed size.
	small := make([]byte, 2)
	n, err = rd.Read(small)
	if !errors.Is(err, register.ErrBufferTooSmall) {
		t.Fatalf("want ErrBufferTooSmall, got %v", err)
	}
	if n != 6 {
		t.Fatalf("needed length = %d, want 6", n)
	}
}

func TestSlotCountIsNPlus2(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32} {
		r := newReg(t, n, 8, Options{})
		if got := r.SlotCount(); got != n+2 {
			t.Fatalf("N=%d: slot count %d, want %d", n, got, n+2)
		}
	}
}

func TestReaderCapacity(t *testing.T) {
	r := newReg(t, 2, 8, Options{})
	a, err := r.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NewReader(); !errors.Is(err, register.ErrTooManyReaders) {
		t.Fatalf("third handle: want ErrTooManyReaders, got %v", err)
	}
	// Closing returns capacity (dynamic mode).
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := r.NewReader()
	if err != nil {
		t.Fatalf("handle after close: %v", err)
	}
	_ = b
	_ = c
	if r.LiveReaders() != 2 {
		t.Fatalf("live readers = %d, want 2", r.LiveReaders())
	}
}

func TestClosedReaderErrors(t *testing.T) {
	r := newReg(t, 1, 8, Options{})
	rd, _ := r.NewReaderHandle()
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.View(); !errors.Is(err, register.ErrReaderClosed) {
		t.Fatalf("View after close: %v", err)
	}
	if _, err := rd.Read(make([]byte, 8)); !errors.Is(err, register.ErrReaderClosed) {
		t.Fatalf("Read after close: %v", err)
	}
	if err := rd.Close(); !errors.Is(err, register.ErrReaderClosed) {
		t.Fatalf("double Close: %v", err)
	}
}

// The fast path (R1–R2) must serve repeated reads of an unchanged value
// with zero RMW instructions — the paper's key optimization over RF.
func TestFastPathAvoidsRMW(t *testing.T) {
	r := newReg(t, 2, 64, Options{})
	rd, _ := r.NewReaderHandle()
	if err := r.Write([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	const reads = 100
	for i := 0; i < reads; i++ {
		if _, err := rd.View(); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.ReadStats()
	if st.Ops != reads {
		t.Fatalf("ops = %d, want %d", st.Ops, reads)
	}
	// First read acquires (1 RMW: no release since the handle held no
	// slot); the remaining 99 hit the fast path.
	if st.FastPath != reads-1 {
		t.Fatalf("fast-path reads = %d, want %d", st.FastPath, reads-1)
	}
	if st.RMW != 1 {
		t.Fatalf("read RMW count = %d, want 1", st.RMW)
	}
}

// After each write, a read takes the slow path exactly once (release +
// acquire = 2 RMW), then fast-paths again.
func TestSlowPathRMWBound(t *testing.T) {
	r := newReg(t, 2, 64, Options{})
	rd, _ := r.NewReaderHandle()
	if _, err := rd.View(); err != nil { // initial acquire: 1 RMW
		t.Fatal(err)
	}
	const writes = 50
	for i := 0; i < writes; i++ {
		if err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ { // one slow read + two fast reads
			if _, err := rd.View(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := rd.ReadStats()
	wantRMW := uint64(1 + writes*2) // initial acquire + (release+acquire) per write
	if st.RMW != wantRMW {
		t.Fatalf("read RMW = %d, want %d", st.RMW, wantRMW)
	}
	if st.FastPath != uint64(writes*2) {
		t.Fatalf("fast-path reads = %d, want %d", st.FastPath, writes*2)
	}
}

// DisableFastPath must force RMW on every read (the ablation baseline).
func TestDisableFastPath(t *testing.T) {
	r := newReg(t, 2, 64, Options{DisableFastPath: true})
	rd, _ := r.NewReaderHandle()
	if err := r.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	const reads = 20
	for i := 0; i < reads; i++ {
		if _, err := rd.View(); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.ReadStats()
	if st.FastPath != 0 {
		t.Fatalf("fast-path reads = %d with the fast path disabled", st.FastPath)
	}
	// First read: acquire only (1). Every later read: release + acquire (2).
	if st.RMW != 1+2*(reads-1) {
		t.Fatalf("RMW = %d, want %d", st.RMW, 1+2*(reads-1))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A write issues exactly one RMW instruction (the W2 exchange): the hint
// path is load/store only. This backs the paper's RMW-economy claim.
func TestWriteSingleRMW(t *testing.T) {
	r := newReg(t, 2, 64, Options{})
	rd, _ := r.NewReaderHandle()
	for i := 0; i < 40; i++ {
		if err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.View(); err != nil {
			t.Fatal(err)
		}
	}
	ws := r.WriteStats()
	if ws.Ops != 40 {
		t.Fatalf("write ops = %d", ws.Ops)
	}
	if ws.RMW != 40 {
		t.Fatalf("write RMW = %d, want exactly one per write", ws.RMW)
	}
}

// With a single reader promptly releasing slots, the free-slot hint should
// serve most writes, keeping the scan amortized constant (§3.4).
func TestFreeHintHits(t *testing.T) {
	r := newReg(t, 1, 64, Options{})
	rd, _ := r.NewReaderHandle()
	const writes = 200
	for i := 0; i < writes; i++ {
		if err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.View(); err != nil {
			t.Fatal(err)
		}
	}
	ws := r.WriteStats()
	if ws.HintHits == 0 {
		t.Fatal("free-slot hint never hit despite prompt releases")
	}
	// Amortized constant: average probes per write should stay tiny.
	if avg := float64(ws.ScanSteps) / float64(ws.Ops); avg > float64(r.SlotCount()) {
		t.Fatalf("average scan steps per write = %.2f", avg)
	}
}

func TestDisableFreeHint(t *testing.T) {
	r := newReg(t, 1, 64, Options{DisableFreeHint: true})
	rd, _ := r.NewReaderHandle()
	for i := 0; i < 50; i++ {
		if err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.View(); err != nil {
			t.Fatal(err)
		}
	}
	if hits := r.WriteStats().HintHits; hits != 0 {
		t.Fatalf("hint hits = %d with the hint disabled", hits)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A view must remain valid and byte-stable across an unbounded number of
// subsequent writes: the handle's presence unit pins the slot (Lemma 4.2's
// flip side). This is the zero-copy contract of §2's "readers read
// directly from the buffer targeted by the write serialized before them".
func TestViewStableWhilePinned(t *testing.T) {
	r := newReg(t, 2, 128, Options{})
	pinned, _ := r.NewReaderHandle()
	buf := make([]byte, 128)
	membuf.Encode(buf, 1)
	if err := r.Write(buf); err != nil {
		t.Fatal(err)
	}
	view, err := pinned.View()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]byte, len(view))
	copy(snapshot, view)
	// Hammer the register with far more writes than there are slots.
	for i := uint64(2); i < 100; i++ {
		membuf.Encode(buf, i)
		if err := r.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(view, snapshot) {
		t.Fatal("pinned view changed under subsequent writes")
	}
	if v, err := membuf.Verify(view); err != nil || v != 1 {
		t.Fatalf("pinned view failed verification: version=%d err=%v", v, err)
	}
	// After the pinned reader moves on, the slot recycles and the
	// register keeps functioning.
	got, err := pinned.View()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := membuf.Verify(got); err != nil || v != 99 {
		t.Fatalf("post-release view: version=%d err=%v", v, err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Wait-freedom of the writer in the presence of a stalled reader: a reader
// that acquired a snapshot and never returns must not block any number of
// subsequent writes (it pins exactly one of the N+2 slots).
func TestWriterWaitFreeUnderStalledReader(t *testing.T) {
	r := newReg(t, 2, 64, Options{})
	stalled, _ := r.NewReaderHandle()
	if err := r.Write([]byte("pinned")); err != nil {
		t.Fatal(err)
	}
	if _, err := stalled.View(); err != nil { // acquires and never releases
		t.Fatal(err)
	}
	active, _ := r.NewReaderHandle()
	for i := 0; i < 500; i++ {
		if err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("write %d blocked by stalled reader: %v", i, err)
		}
		if _, err := active.View(); err != nil {
			t.Fatal(err)
		}
	}
	// The stalled reader's snapshot is still intact.
	v, _ := stalled.View() // this read moves it to the freshest value
	want := []byte{byte(499 % 256)}
	if !bytes.Equal(v, want) {
		t.Fatalf("stalled reader resumed to %v, want %v", v, want)
	}
}

// With every reader stalled (all pinning distinct slots), the writer still
// has 2 spare slots and must keep succeeding — the N+2 lower bound at work.
func TestWriterWaitFreeAllReadersStalled(t *testing.T) {
	const n = 8
	r := newReg(t, n, 32, Options{})
	// Park each reader on a distinct snapshot.
	for i := 0; i < n; i++ {
		if err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		rd, err := r.NewReaderHandle()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.View(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := r.Write([]byte{0xFF}); err != nil {
			t.Fatalf("write %d failed with all readers stalled: %v", i, err)
		}
	}
	ws := r.WriteStats()
	// Wait-freedom bound: the scan may never exceed SlotCount probes per
	// write.
	if maxAvg := float64(r.SlotCount()); float64(ws.ScanSteps)/float64(ws.Ops) > maxAvg {
		t.Fatalf("scan steps per write %.1f exceed the slot count", float64(ws.ScanSteps)/float64(ws.Ops))
	}
}

// Sequential model check: against a simple "last written value" model, an
// ARC register with interleaved reads/writes on one goroutine must agree
// exactly (atomicity degenerates to that in the absence of concurrency).
func TestSequentialModelQuick(t *testing.T) {
	f := func(ops []byte, sizes []byte) bool {
		r, err := New(register.Config{MaxReaders: 2, MaxValueSize: 64}, Options{})
		if err != nil {
			return false
		}
		rd, err := r.NewReaderHandle()
		if err != nil {
			return false
		}
		model := []byte{0} // initial default
		for i, op := range ops {
			if op%2 == 0 { // write
				size := 1
				if len(sizes) > 0 {
					size = 1 + int(sizes[i%len(sizes)])%63
				}
				val := bytes.Repeat([]byte{op}, size)
				if err := r.Write(val); err != nil {
					return false
				}
				model = val
			} else { // read
				got, err := rd.View()
				if err != nil || !bytes.Equal(got, model) {
					return false
				}
			}
		}
		return r.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent torture: one writer, many readers, every read must verify as
// an untorn payload with a version that never decreases per reader.
// This is the executable form of Theorem 4.3 + per-process monotonicity.
func TestConcurrentIntegrity(t *testing.T) {
	const (
		readers = 8
		writes  = 2000
		size    = 256
	)
	r := newReg(t, readers, size, Options{})
	seed := make([]byte, size)
	membuf.Encode(seed, 0)
	if err := r.Write(seed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for i := 0; i < readers; i++ {
		rd, err := r.NewReaderHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rd *Reader) {
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
					errs <- fmt.Errorf("torn read: %w", err)
					return
				}
				if ver < last {
					errs <- fmt.Errorf("version regressed: %d after %d", ver, last)
					return
				}
				last = ver
			}
		}(rd)
	}
	// A Stats walker beside them: slots_used is the writer's published
	// prefix, which grows and shrinks as readers come and go but always
	// holds the current slot and never exceeds the slot count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			used, _ := r.Stats().Get("slots_used")
			if used < 1 || used > uint64(r.SlotCount()) {
				t.Errorf("slots_used %d, want 1..%d", used, r.SlotCount())
				return
			}
		}
	}()

	buf := make([]byte, size)
	for i := uint64(1); i <= writes; i++ {
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
	if got, held := r.FixedBuffers(), liveBuffers(r); got != held {
		t.Fatalf("FixedBuffers = %d, but %d slots hold a buffer", got, held)
	}
}

// Concurrent readers churning handles (open/read/close) must neither leak
// capacity nor break invariants.
func TestReaderChurn(t *testing.T) {
	const readers = 4
	r := newReg(t, readers, 64, Options{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rd, err := r.NewReader()
				if err != nil {
					continue // transient capacity exhaustion is fine
				}
				buf := make([]byte, 64)
				if _, err := rd.Read(buf); err != nil {
					panic(err)
				}
				if err := rd.Close(); err != nil {
					panic(err)
				}
			}
		}()
	}
	for i := 0; i < 3000; i++ {
		if err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if r.LiveReaders() != 0 {
		t.Fatalf("leaked %d reader handles", r.LiveReaders())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(register.Config{MaxReaders: 0}, Options{}); err == nil {
		t.Error("MaxReaders=0 accepted")
	}
	if _, err := New(register.Config{MaxReaders: -3}, Options{}); err == nil {
		t.Error("negative MaxReaders accepted")
	}
	if _, err := New(register.Config{MaxReaders: 1, MaxValueSize: -1}, Options{}); err == nil {
		t.Error("negative MaxValueSize accepted")
	}
	if _, err := New(register.Config{MaxReaders: 1, MaxValueSize: 4, Initial: make([]byte, 8)}, Options{}); err == nil {
		t.Error("oversized initial value accepted")
	}
}

func TestName(t *testing.T) {
	r := newReg(t, 1, 8, Options{})
	if r.Name() != "arc" {
		t.Fatalf("Name() = %q", r.Name())
	}
	if r.MaxReaders() != 1 || r.MaxValueSize() != 8 {
		t.Fatal("config accessors wrong")
	}
	if r.Writer() == nil {
		t.Fatal("Writer() returned nil")
	}
}
