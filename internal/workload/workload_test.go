package workload

import (
	"testing"

	"arcreg/internal/arc"
	"arcreg/internal/history"
	"arcreg/internal/membuf"
	"arcreg/internal/peterson"
	"arcreg/internal/register"
)

func newARC(t *testing.T, readers, size int) *arc.Register {
	t.Helper()
	seed := make([]byte, size)
	membuf.Encode(seed, 0)
	r, err := arc.New(register.Config{MaxReaders: readers, MaxValueSize: size, Initial: seed}, arc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestModeParse(t *testing.T) {
	if m, err := ParseMode("dummy"); err != nil || m != Dummy {
		t.Fatalf("dummy: %v %v", m, err)
	}
	if m, err := ParseMode("processing"); err != nil || m != Processing {
		t.Fatalf("processing: %v %v", m, err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if Dummy.String() != "dummy" || Processing.String() != "processing" {
		t.Fatal("mode strings wrong")
	}
}

func TestReaderWorkUsesViewForViewers(t *testing.T) {
	r := newARC(t, 1, 64)
	rd, _ := r.NewReader()
	w := NewReaderWork(rd, r.Caps().ZeroCopyView, Dummy, 64)
	if w.scratch != nil {
		t.Fatal("viewer path should not allocate scratch")
	}
	for i := 0; i < 10; i++ {
		if err := w.Do(); err != nil {
			t.Fatal(err)
		}
	}
	if w.Sink() == 0 {
		t.Fatal("dummy read left no trace in the sink")
	}
}

func TestReaderWorkCopiesForNonViewers(t *testing.T) {
	p, err := peterson.New(register.Config{MaxReaders: 1, MaxValueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := p.NewReader()
	w := NewReaderWork(rd, p.Caps().ZeroCopyView, Dummy, 64)
	if len(w.scratch) != 64 {
		t.Fatalf("scratch size %d", len(w.scratch))
	}
	if err := w.Do(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessingModeScans(t *testing.T) {
	r := newARC(t, 1, 256)
	wr := NewWriterWork(r.Writer(), Processing, 256)
	rd, _ := r.NewReader()
	w := NewReaderWork(rd, r.Caps().ZeroCopyView, Processing, 256)
	if err := wr.Do(); err != nil {
		t.Fatal(err)
	}
	if err := w.Do(); err != nil {
		t.Fatal(err)
	}
	s1 := w.Sink()
	if s1 == 0 {
		t.Fatal("processing read produced no checksum")
	}
	if err := wr.Do(); err != nil { // new version, new content
		t.Fatal(err)
	}
	if err := w.Do(); err != nil {
		t.Fatal(err)
	}
	if w.Sink() == s1*2 {
		t.Fatal("second scan identical to first; content not regenerated")
	}
	if wr.Version() != 2 {
		t.Fatalf("writer versions = %d", wr.Version())
	}
}

func TestDummyWriterConstantContent(t *testing.T) {
	r := newARC(t, 1, 64)
	wr := NewWriterWork(r.Writer(), Dummy, 64)
	rd, err := r.NewReaderHandle()
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Do(); err != nil {
		t.Fatal(err)
	}
	v1, _ := rd.View()
	first := append([]byte(nil), v1...)
	if err := wr.Do(); err != nil {
		t.Fatal(err)
	}
	v2, _ := rd.View()
	if string(first) != string(v2) {
		t.Fatal("dummy writes changed content between ops")
	}
	if wr.Version() != 0 {
		t.Fatal("dummy mode should not bump versions")
	}
}

func TestWriterWorkMinimumSize(t *testing.T) {
	r := newARC(t, 1, 64)
	w := NewWriterWork(r.Writer(), Dummy, 1) // below codec minimum
	if len(w.buf) != membuf.MinPayload {
		t.Fatalf("buffer size %d, want %d", len(w.buf), membuf.MinPayload)
	}
	if err := w.Do(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifiedRoundTrip(t *testing.T) {
	const size = 128
	r := newARC(t, 2, size)
	clock := history.NewClock()
	wlog := history.NewLog(64)
	rlog := history.NewLog(64)

	vw := NewVerifiedWriter(r.Writer(), size, clock, wlog)
	rd, _ := r.NewReader()
	vr := NewVerifiedReader(rd, r.Caps().ZeroCopyView, 0, size, clock, rlog)

	for i := 0; i < 20; i++ {
		if err := vw.Do(); err != nil {
			t.Fatal(err)
		}
		if err := vr.Do(); err != nil {
			t.Fatal(err)
		}
	}
	if vw.Versions() != 20 {
		t.Fatalf("versions = %d", vw.Versions())
	}
	if wlog.Len() != 20 || rlog.Len() != 20 {
		t.Fatalf("logs: %d writes, %d reads", wlog.Len(), rlog.Len())
	}
	res := history.Merge(wlog, rlog).Check()
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Error(v)
		}
	}
}

func TestVerifiedSeedValueVerifies(t *testing.T) {
	r := newARC(t, 1, 64)
	clock := history.NewClock()
	vw := NewVerifiedWriter(r.Writer(), 64, clock, history.NewLog(1))
	seed := vw.SeedValue()
	if v, err := membuf.Verify(seed); err != nil || v != 0 {
		t.Fatalf("seed: version=%d err=%v", v, err)
	}
}

func TestVerifiedReaderNonViewer(t *testing.T) {
	const size = 64
	p, err := peterson.New(register.Config{MaxReaders: 1, MaxValueSize: size})
	if err != nil {
		t.Fatal(err)
	}
	clock := history.NewClock()
	wlog, rlog := history.NewLog(8), history.NewLog(8)
	vw := NewVerifiedWriter(p.Writer(), size, clock, wlog)
	// Seed the register so the first read verifies.
	if err := p.Write(vw.SeedValue()); err != nil {
		t.Fatal(err)
	}
	rd, _ := p.NewReader()
	vr := NewVerifiedReader(rd, p.Caps().ZeroCopyView, 0, size, clock, rlog)
	if err := vr.Do(); err != nil {
		t.Fatal(err)
	}
	if err := vw.Do(); err != nil {
		t.Fatal(err)
	}
	if err := vr.Do(); err != nil {
		t.Fatal(err)
	}
	res := history.Merge(wlog, rlog).Check()
	if !res.Ok() {
		t.Fatalf("violations: %v", res.Violations)
	}
}
