package rf

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

func newReg(t testing.TB, readers, size int) *Register {
	t.Helper()
	r, err := New(register.Config{MaxReaders: readers, MaxValueSize: size})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestReaderLimit58(t *testing.T) {
	if _, err := New(register.Config{MaxReaders: 58, MaxValueSize: 8}); err != nil {
		t.Fatalf("58 readers rejected: %v", err)
	}
	if _, err := New(register.Config{MaxReaders: 59, MaxValueSize: 8}); err == nil {
		t.Fatal("59 readers accepted; RF must cap at 58")
	}
}

func TestBufferCountIsNPlus2(t *testing.T) {
	for _, n := range []int{1, 2, 17, 58} {
		r := newReg(t, n, 8)
		if got := r.BufferCount(); got != n+2 {
			t.Fatalf("N=%d: %d buffers, want %d", n, got, n+2)
		}
	}
}

func TestReadReturnsLastWrite(t *testing.T) {
	r := newReg(t, 3, 128)
	rd, _ := r.NewReaderHandle()
	for i := 0; i < 200; i++ {
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

func TestInitialValue(t *testing.T) {
	r, err := New(register.Config{MaxReaders: 1, MaxValueSize: 16, Initial: []byte("init")})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := r.NewReaderHandle()
	v, _ := rd.View()
	if string(v) != "init" {
		t.Fatalf("initial value %q", v)
	}
}

// RF's defining cost: one RMW on EVERY read, changed register or not —
// the contrast to ARC's fast path that the paper measures in §5.
func TestEveryReadIsRMW(t *testing.T) {
	r := newReg(t, 2, 32)
	rd, _ := r.NewReaderHandle()
	if err := r.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	const reads = 50
	for i := 0; i < reads; i++ {
		if _, err := rd.View(); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.ReadStats()
	if st.RMW != reads {
		t.Fatalf("RMW = %d, want %d (one per read)", st.RMW, reads)
	}
	if st.FastPath != 0 {
		t.Fatalf("RF reported %d fast-path reads; it has no fast path", st.FastPath)
	}
}

// The writer's scan is O(N) per write: ScanSteps grows with MaxReaders
// even when nobody reads.
func TestWriterScanLinearInN(t *testing.T) {
	small := newReg(t, 2, 8)
	large := newReg(t, 58, 8)
	const writes = 20
	for i := 0; i < writes; i++ {
		if err := small.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := large.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	smallSteps := small.WriteStats().ScanSteps
	largeSteps := large.WriteStats().ScanSteps
	if largeSteps < smallSteps*5 {
		t.Fatalf("scan steps did not grow with N: N=2 → %d, N=58 → %d", smallSteps, largeSteps)
	}
}

func TestWriteTooLarge(t *testing.T) {
	r := newReg(t, 1, 8)
	if err := r.Write(make([]byte, 9)); !errors.Is(err, register.ErrValueTooLarge) {
		t.Fatalf("want ErrValueTooLarge, got %v", err)
	}
	if err := r.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestVariableSizes(t *testing.T) {
	r := newReg(t, 1, 256)
	rd, _ := r.NewReaderHandle()
	for _, n := range []int{0, 1, 255, 7, 256} {
		val := bytes.Repeat([]byte{0xAB}, n)
		if err := r.Write(val); err != nil {
			t.Fatal(err)
		}
		got, _ := rd.View()
		if len(got) != n {
			t.Fatalf("size %d read back as %d", n, len(got))
		}
	}
}

func TestReaderIDsDistinctAndRecycled(t *testing.T) {
	r := newReg(t, 3, 8)
	a, _ := r.NewReaderHandle()
	b, _ := r.NewReaderHandle()
	c, _ := r.NewReaderHandle()
	if a.ID() == b.ID() || b.ID() == c.ID() || a.ID() == c.ID() {
		t.Fatal("reader ids collide")
	}
	if _, err := r.NewReader(); !errors.Is(err, register.ErrTooManyReaders) {
		t.Fatalf("fourth handle: %v", err)
	}
	freed := b.ID()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := r.NewReaderHandle()
	if err != nil {
		t.Fatal(err)
	}
	if d.ID() != freed {
		t.Fatalf("recycled id %d, want %d", d.ID(), freed)
	}
}

func TestClosedReaderErrors(t *testing.T) {
	r := newReg(t, 1, 8)
	rd, _ := r.NewReaderHandle()
	rd.Close()
	if _, err := rd.View(); !errors.Is(err, register.ErrReaderClosed) {
		t.Fatalf("View after close: %v", err)
	}
	if err := rd.Close(); !errors.Is(err, register.ErrReaderClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestReadCopies(t *testing.T) {
	r := newReg(t, 1, 32)
	rd, _ := r.NewReaderHandle()
	r.Write([]byte("payload"))
	dst := make([]byte, 32)
	n, err := rd.Read(dst)
	if err != nil || string(dst[:n]) != "payload" {
		t.Fatalf("Read: n=%d err=%v content=%q", n, err, dst[:n])
	}
	if n, err := rd.Read(make([]byte, 2)); !errors.Is(err, register.ErrBufferTooSmall) || n != 7 {
		t.Fatalf("small dst: n=%d err=%v", n, err)
	}
}

// A slow reader's buffer must survive arbitrarily many subsequent writes:
// the trace pins it (RF's equivalent of ARC's presence pinning).
func TestViewStableWhilePinned(t *testing.T) {
	r := newReg(t, 2, 128)
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
	snapshot := append([]byte(nil), view...)
	for i := uint64(2); i < 200; i++ {
		membuf.Encode(buf, i)
		if err := r.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(view, snapshot) {
		t.Fatal("pinned view changed under subsequent writes")
	}
	if v, err := membuf.Verify(view); err != nil || v != 1 {
		t.Fatalf("pinned view corrupt: version=%d err=%v", v, err)
	}
}

// Writer wait-freedom with all readers parked on distinct buffers.
func TestWriterWaitFreeUnderStalledReaders(t *testing.T) {
	const n = 8
	r := newReg(t, n, 32)
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
			t.Fatalf("write %d failed: %v", i, err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Sequential model check against last-written-value semantics.
func TestSequentialModelQuick(t *testing.T) {
	f := func(ops []byte) bool {
		r, err := New(register.Config{MaxReaders: 2, MaxValueSize: 64})
		if err != nil {
			return false
		}
		rd, err := r.NewReaderHandle()
		if err != nil {
			return false
		}
		model := []byte{0}
		for _, op := range ops {
			if op%2 == 0 {
				val := bytes.Repeat([]byte{op}, 1+int(op)%32)
				if r.Write(val) != nil {
					return false
				}
				model = val
			} else {
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

// Concurrent torture: every read untorn, versions monotone per reader.
func TestConcurrentIntegrity(t *testing.T) {
	const (
		readers = 8
		writes  = 2000
		size    = 256
	)
	r := newReg(t, readers, size)
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
					errs <- fmt.Errorf("torn read: %w", err)
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
}

func TestName(t *testing.T) {
	r := newReg(t, 1, 8)
	if r.Name() != "rf" {
		t.Fatalf("Name() = %q", r.Name())
	}
	if r.Writer() == nil {
		t.Fatal("Writer() returned nil")
	}
}

func TestFreshProbe(t *testing.T) {
	r := newReg(t, 1, 32)
	rd, _ := r.NewReaderHandle()
	if rd.Fresh() {
		t.Fatal("unread handle reports fresh")
	}
	if _, err := rd.View(); err != nil {
		t.Fatal(err)
	}
	if !rd.Fresh() {
		t.Fatal("just-read handle not fresh")
	}
	if err := r.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if rd.Fresh() {
		t.Fatal("handle fresh after a write")
	}
	if _, err := rd.View(); err != nil {
		t.Fatal(err)
	}
	if !rd.Fresh() {
		t.Fatal("handle not fresh after re-read")
	}
	rd.Close()
	if rd.Fresh() {
		t.Fatal("closed handle reports fresh")
	}
}
