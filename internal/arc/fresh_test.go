package arc

import (
	"testing"

	"arcreg/internal/register"
)

func TestFreshLifecycle(t *testing.T) {
	r := newReg(t, 2, 64, Options{})
	rd, _ := r.NewReaderHandle()

	// Never read: not fresh by definition.
	if rd.Fresh() {
		t.Fatal("unread handle reports fresh")
	}
	if _, err := rd.View(); err != nil {
		t.Fatal(err)
	}
	if !rd.Fresh() {
		t.Fatal("just-read handle not fresh")
	}
	// A write invalidates.
	if err := r.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if rd.Fresh() {
		t.Fatal("handle fresh after a write")
	}
	// Re-reading restores freshness.
	if _, err := rd.View(); err != nil {
		t.Fatal(err)
	}
	if !rd.Fresh() {
		t.Fatal("handle not fresh after re-read")
	}
	// Closed handles are never fresh.
	rd.Close()
	if rd.Fresh() {
		t.Fatal("closed handle reports fresh")
	}
}

// The probe must not perturb the protocol: freshness polling between
// reads leaves counters and stats untouched.
func TestFreshIsPure(t *testing.T) {
	r := newReg(t, 1, 64, Options{})
	rd, _ := r.NewReaderHandle()
	r.Write([]byte("x"))
	rd.View()
	before := rd.ReadStats()
	for i := 0; i < 1000; i++ {
		if !rd.Fresh() {
			t.Fatal("freshness flapped with no writes")
		}
	}
	after := rd.ReadStats()
	if before != after {
		t.Fatalf("Fresh() mutated stats: %+v -> %+v", before, after)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ViewFresh pairs the view with the change report: changed on the first
// read and after every publish, unchanged (and RMW-free) in between.
func TestViewFreshChangeReport(t *testing.T) {
	r := newReg(t, 2, 64, Options{})
	rd, _ := r.NewReaderHandle()

	v, changed, err := rd.ViewFresh()
	if err != nil || !changed {
		t.Fatalf("first read: changed=%v err=%v", changed, err)
	}
	if string(v) != "\x00" {
		t.Fatalf("initial view = %q", v)
	}
	before := rd.ReadStats()
	for i := 0; i < 5; i++ {
		v, changed, err = rd.ViewFresh()
		if err != nil || changed {
			t.Fatalf("idle read %d: changed=%v err=%v", i, changed, err)
		}
	}
	if after := rd.ReadStats(); after.RMW != before.RMW || after.FastPath != before.FastPath+5 {
		t.Fatalf("idle ViewFresh stats: %+v -> %+v", before, after)
	}
	if err := r.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	v, changed, err = rd.ViewFresh()
	if err != nil || !changed {
		t.Fatalf("post-write read: changed=%v err=%v", changed, err)
	}
	if string(v) != "new" {
		t.Fatalf("post-write view = %q", v)
	}
	rd.Close()
	if _, _, err := rd.ViewFresh(); err != register.ErrReaderClosed {
		t.Fatalf("closed ViewFresh err = %v", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// With the fast path ablated, ViewFresh conservatively reports changed on
// every call — callers must re-decode, never wrongly reuse a cache.
func TestViewFreshNoFastPath(t *testing.T) {
	r := newReg(t, 2, 64, Options{DisableFastPath: true})
	rd, _ := r.NewReaderHandle()
	for i := 0; i < 3; i++ {
		if _, changed, err := rd.ViewFresh(); err != nil || !changed {
			t.Fatalf("read %d: changed=%v err=%v (want changed with fast path off)", i, changed, err)
		}
	}
}

func TestFreshAllocFree(t *testing.T) {
	r := newReg(t, 1, 64, Options{})
	rd, _ := r.NewReaderHandle()
	r.Write([]byte("x"))
	rd.View()
	if avg := testing.AllocsPerRun(100, func() { rd.Fresh() }); avg != 0 {
		t.Fatalf("Fresh allocates %.1f/op", avg)
	}
}
