package mnreg

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"arcreg/internal/membuf"
	"arcreg/internal/register"
)

func newReg(t testing.TB, m, n, size int) *Register {
	t.Helper()
	r, err := New(Config{Writers: m, Readers: n, MaxValueSize: size}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Writers: 0, Readers: 1}, Options{}); err == nil {
		t.Error("zero writers accepted")
	}
	if _, err := New(Config{Writers: 1, Readers: 0}, Options{}); err == nil {
		t.Error("zero readers accepted")
	}
	if _, err := New(Config{Writers: 1, Readers: 1, MaxValueSize: 4, Initial: make([]byte, 8)}, Options{}); err == nil {
		t.Error("oversized initial accepted")
	}
	if _, err := New(Config{Writers: 2, Readers: 1, MaxValueSize: -5}, Options{}); err == nil {
		t.Error("negative MaxValueSize accepted")
	}
}

func TestInitialValue(t *testing.T) {
	r, err := New(Config{Writers: 2, Readers: 1, MaxValueSize: 32, Initial: []byte("genesis")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.View()
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "genesis" {
		t.Fatalf("initial = %q", v)
	}
	if rd.LastTag() != (Tag{0, 0}) {
		t.Fatalf("initial tag = %v", rd.LastTag())
	}
}

func TestSingleWriterSequential(t *testing.T) {
	r := newReg(t, 1, 1, 64)
	w, err := r.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := r.NewReader()
	for i := 0; i < 50; i++ {
		val := []byte(fmt.Sprintf("v%02d", i))
		if err := w.Write(val); err != nil {
			t.Fatal(err)
		}
		got, err := rd.View()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("read %q want %q", got, val)
		}
	}
	if rd.LastTag().Seq != 50 {
		t.Fatalf("final seq = %d", rd.LastTag().Seq)
	}
}

// A later writer must outbid earlier writes from OTHER writers: sequence
// numbers are collected across all components.
func TestWritersOutbidEachOther(t *testing.T) {
	r := newReg(t, 2, 1, 64)
	w0, _ := r.NewWriter()
	w1, _ := r.NewWriter()
	rd, _ := r.NewReader()

	if err := w0.Write([]byte("from-w0")); err != nil {
		t.Fatal(err)
	}
	v, _ := rd.View()
	if string(v) != "from-w0" {
		t.Fatalf("read %q", v)
	}
	t0 := rd.LastTag()

	if err := w1.Write([]byte("from-w1")); err != nil {
		t.Fatal(err)
	}
	v, _ = rd.View()
	if string(v) != "from-w1" {
		t.Fatalf("after w1: read %q", v)
	}
	t1 := rd.LastTag()
	if !t0.Less(t1) {
		t.Fatalf("tag did not advance: %v then %v", t0, t1)
	}

	// And back: w0 must outbid w1's tag.
	if err := w0.Write([]byte("w0-again")); err != nil {
		t.Fatal(err)
	}
	v, _ = rd.View()
	if string(v) != "w0-again" {
		t.Fatalf("after w0 again: read %q", v)
	}
	if !t1.Less(rd.LastTag()) {
		t.Fatalf("tag regressed: %v then %v", t1, rd.LastTag())
	}
}

func TestTagOrdering(t *testing.T) {
	cases := []struct {
		a, b Tag
		less bool
	}{
		{Tag{1, 0}, Tag{2, 0}, true},
		{Tag{2, 0}, Tag{1, 0}, false},
		{Tag{1, 0}, Tag{1, 1}, true},
		{Tag{1, 1}, Tag{1, 0}, false},
		{Tag{1, 1}, Tag{1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v", c.a, c.b, got)
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	buf := make([]byte, tagSize)
	for _, tag := range []Tag{{0, 0}, {1, 2}, {1 << 60, 1 << 30}} {
		putTag(buf, tag)
		if got := getTag(buf); got != tag {
			t.Fatalf("round trip %v -> %v", tag, got)
		}
	}
}

func TestWriterIdentityExhaustionAndRecycle(t *testing.T) {
	r := newReg(t, 2, 1, 16)
	a, _ := r.NewWriter()
	b, _ := r.NewWriter()
	if _, err := r.NewWriter(); err == nil {
		t.Fatal("third writer accepted with M=2")
	}
	aid := a.ID()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := r.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != aid {
		t.Fatalf("recycled id %d, want %d", c.ID(), aid)
	}
	_ = b
}

func TestReaderCapacity(t *testing.T) {
	r := newReg(t, 1, 1, 16)
	a, err := r.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NewReader(); !errors.Is(err, register.ErrTooManyReaders) {
		t.Fatalf("second reader: %v", err)
	}
	a.Close()
	if _, err := r.NewReader(); err != nil {
		t.Fatalf("after close: %v", err)
	}
}

func TestClosedHandles(t *testing.T) {
	r := newReg(t, 1, 1, 16)
	w, _ := r.NewWriter()
	rd, _ := r.NewReader()
	w.Close()
	rd.Close()
	if err := w.Write([]byte("x")); err == nil {
		t.Error("write on closed writer accepted")
	}
	if _, err := rd.View(); err == nil {
		t.Error("view on closed reader accepted")
	}
	if err := w.Close(); err == nil {
		t.Error("double writer close accepted")
	}
	if err := rd.Close(); err == nil {
		t.Error("double reader close accepted")
	}
}

func TestWriteTooLarge(t *testing.T) {
	r := newReg(t, 1, 1, 8)
	w, _ := r.NewWriter()
	if err := w.Write(make([]byte, 9)); !errors.Is(err, register.ErrValueTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadCopy(t *testing.T) {
	r := newReg(t, 1, 1, 32)
	w, _ := r.NewWriter()
	rd, _ := r.NewReader()
	w.Write([]byte("payload"))
	dst := make([]byte, 32)
	n, err := rd.Read(dst)
	if err != nil || string(dst[:n]) != "payload" {
		t.Fatalf("Read: %q %v", dst[:n], err)
	}
	if n, err := rd.Read(make([]byte, 2)); !errors.Is(err, register.ErrBufferTooSmall) || n != 7 {
		t.Fatalf("small dst: %d %v", n, err)
	}
}

// TestViewFresh pins the composite probe-and-fetch: the first read
// reports changed, a quiescent re-read reports unchanged without
// counting a read, every writer's publish reports changed, a publish
// that loses the tag argmax reports unchanged, and a closed handle
// errors.
func TestViewFresh(t *testing.T) {
	r := newReg(t, 2, 1, 32)
	w0, _ := r.NewWriter()
	w1, _ := r.NewWriter()
	rd, _ := r.NewReader()

	v, changed, err := rd.ViewFresh()
	if err != nil || !changed || len(v) != 0 {
		t.Fatalf("first ViewFresh = %q, %v, %v; want the empty genesis value, changed", v, changed, err)
	}
	ops := rd.ReadStats().Ops
	for i := 0; i < 3; i++ {
		if v, changed, err = rd.ViewFresh(); err != nil || changed || len(v) != 0 {
			t.Fatalf("quiescent ViewFresh = %q, %v, %v; want unchanged genesis", v, changed, err)
		}
	}
	if got := rd.ReadStats().Ops; got != ops {
		t.Fatalf("quiescent re-reads counted as reads: Ops %d -> %d", ops, got)
	}

	// w1 first, then w0 twice: component 1 ends at tag (1,1), the
	// winner at (3,0).
	for i, w := range []*Writer{w1, w0, w0} {
		val := []byte(fmt.Sprintf("w%d-%d", w.ID(), i))
		if err := w.Write(val); err != nil {
			t.Fatal(err)
		}
		if v, changed, err = rd.ViewFresh(); err != nil || !changed || !bytes.Equal(v, val) {
			t.Fatalf("after w%d: ViewFresh = %q, %v, %v; want %q, changed", w.ID(), v, changed, err, val)
		}
		if v, changed, _ = rd.ViewFresh(); changed || !bytes.Equal(v, val) {
			t.Fatalf("re-read after w%d: %q, changed=%v; want %q, unchanged", w.ID(), v, changed, val)
		}
	}

	// A writer whose tag collect overlapped the winner's publish can
	// publish a tag that loses the argmax: (2,1) into component 1, with
	// the writers' epoch bracket. The conservative probe fails, the
	// collect runs, and the tag shows no new value.
	lost := make([]byte, tagSize+4)
	putTag(lost, Tag{Seq: 2, Writer: 1})
	copy(lost[tagSize:], "lost")
	r.pubStarted.Add(1)
	if err := r.comps[1].Write(lost); err != nil {
		t.Fatal(err)
	}
	r.pubDone.Add(1)
	ops = rd.ReadStats().Ops
	if v, changed, err = rd.ViewFresh(); err != nil || changed || string(v) != "w0-2" {
		t.Fatalf("after a losing publish: ViewFresh = %q, %v, %v; want %q, unchanged", v, changed, err, "w0-2")
	}
	if got := rd.ReadStats().Ops; got != ops+1 {
		t.Fatalf("losing publish: Ops %d -> %d, want the probe to fail into one collect", ops, got)
	}

	rd.Close()
	if _, _, err := rd.ViewFresh(); !errors.Is(err, register.ErrReaderClosed) {
		t.Fatalf("ViewFresh after Close: %v", err)
	}
}

// Concurrent torture: M writers and N readers; every read must verify
// (untorn), and per-reader tags must be monotone — the composite analogue
// of the (1,N) atomicity tests.
func TestConcurrentMultiWriterIntegrity(t *testing.T) {
	const (
		writers = 3
		readers = 4
		perW    = 400
		size    = 256
	)
	r := newReg(t, writers, readers, size)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	stop := make(chan struct{})

	for wid := 0; wid < writers; wid++ {
		w, err := r.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w *Writer) {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < perW; i++ {
				// Version packs (writer, i) so payloads are unique and
				// verifiable.
				membuf.Encode(buf, uint64(w.ID())<<32|uint64(i)+1)
				if err := w.Write(buf); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	var rg sync.WaitGroup
	for rid := 0; rid < readers; rid++ {
		rd, err := r.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		rg.Add(1)
		go func(rd *Reader) {
			defer rg.Done()
			var last Tag
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
				if len(v) == 0 { // initial empty value
					continue
				}
				if _, err := membuf.Verify(v); err != nil {
					errs <- fmt.Errorf("torn composite read: %w", err)
					return
				}
				tag := rd.LastTag()
				if tag.Less(last) {
					errs <- fmt.Errorf("tag regressed: %v after %v", tag, last)
					return
				}
				last = tag
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

// Two sequential reads through different readers must never invert tags:
// reader B, starting after reader A finished, sees a tag ≥ A's.
func TestNoInversionAcrossReaders(t *testing.T) {
	r := newReg(t, 2, 2, 64)
	w0, _ := r.NewWriter()
	w1, _ := r.NewWriter()
	ra, _ := r.NewReader()
	rb, _ := r.NewReader()
	for i := 0; i < 200; i++ {
		w := w0
		if i%2 == 1 {
			w = w1
		}
		if err := w.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ra.View(); err != nil {
			t.Fatal(err)
		}
		ta := ra.LastTag()
		if _, err := rb.View(); err != nil {
			t.Fatal(err)
		}
		tb := rb.LastTag()
		if tb.Less(ta) {
			t.Fatalf("iteration %d: inversion %v then %v", i, ta, tb)
		}
	}
}
