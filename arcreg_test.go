package arcreg_test

// Black-box tests of the public API: everything an importing application
// can reach must work as documented, across all five constructors.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"arcreg"
)

type factory struct {
	name     string
	make     func(arcreg.Config) (arcreg.Register, error)
	hasView  bool
	waitFree bool
}

func factories() []factory {
	return []factory{
		{"arc", func(c arcreg.Config) (arcreg.Register, error) { return arcreg.NewARC(c) }, true, true},
		{"rf", arcreg.NewRF, true, true},
		{"peterson", arcreg.NewPeterson, false, true},
		{"lock", arcreg.NewLocked, true, false},
		{"seqlock", arcreg.NewSeqlock, false, false},
		{"leftright", arcreg.NewLeftRight, true, false},
	}
}

func TestPublicRoundTripAllAlgorithms(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			reg, err := f.make(arcreg.Config{MaxReaders: 4, MaxValueSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			if reg.Name() != f.name {
				t.Fatalf("Name() = %q", reg.Name())
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			w := reg.Writer()
			for i := 0; i < 20; i++ {
				val := []byte(fmt.Sprintf("value %02d", i))
				if err := w.Write(val); err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 128)
				n, err := rd.Read(buf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf[:n], val) {
					t.Fatalf("read %q want %q", buf[:n], val)
				}
			}
		})
	}
}

func TestPublicViewSupport(t *testing.T) {
	for _, f := range factories() {
		reg, err := f.make(arcreg.Config{MaxReaders: 2, MaxValueSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Writer().Write([]byte("zero-copy")); err != nil {
			t.Fatal(err)
		}
		rd, _ := reg.NewReader()
		viewer, ok := rd.(arcreg.Viewer)
		if ok != f.hasView {
			t.Fatalf("%s: View support = %v, want %v", f.name, ok, f.hasView)
		}
		if ok {
			if v, err := viewer.View(); err != nil || string(v) != "zero-copy" {
				t.Fatalf("%s: view = %q, %v", f.name, v, err)
			}
		}
		rd.Close()
	}
}

func TestPublicErrors(t *testing.T) {
	reg, err := arcreg.NewARC(arcreg.Config{MaxReaders: 1, MaxValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Writer().Write(make([]byte, 9)); !errors.Is(err, arcreg.ErrValueTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
	a, _ := reg.NewReader()
	if _, err := reg.NewReader(); !errors.Is(err, arcreg.ErrTooManyReaders) {
		t.Fatalf("capacity: %v", err)
	}
	a.Close()
	if _, err := a.Read(make([]byte, 8)); !errors.Is(err, arcreg.ErrReaderClosed) {
		t.Fatalf("closed read: %v", err)
	}
	reg.Writer().Write([]byte("12345678"))
	b, _ := reg.NewReader()
	if _, err := b.Read(make([]byte, 2)); !errors.Is(err, arcreg.ErrBufferTooSmall) {
		t.Fatalf("small dst: %v", err)
	}
}

func TestPublicARCOptions(t *testing.T) {
	reg, err := arcreg.NewARC(arcreg.Config{MaxReaders: 2, MaxValueSize: 32},
		arcreg.WithoutFastPath(), arcreg.WithoutFreeHint())
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := reg.NewReader()
	reg.Writer().Write([]byte("x"))
	for i := 0; i < 10; i++ {
		if _, err := rd.Read(make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.(interface{ ReadStats() arcreg.ReadStats }).ReadStats()
	if st.FastPath != 0 {
		t.Fatalf("fast path used despite WithoutFastPath: %d", st.FastPath)
	}

	static, err := arcreg.NewARC(arcreg.Config{MaxReaders: 1, MaxValueSize: 8},
		arcreg.WithStaticReaders())
	if err != nil {
		t.Fatal(err)
	}
	h, err := static.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := static.NewReader(); !errors.Is(err, arcreg.ErrTooManyReaders) {
		t.Fatalf("static mode allowed a second handle lifetime: %v", err)
	}
}

func TestPublicStats(t *testing.T) {
	reg, _ := arcreg.NewARC(arcreg.Config{MaxReaders: 1, MaxValueSize: 64})
	rd, _ := reg.NewReader()
	w := reg.Writer()
	for i := 0; i < 5; i++ {
		w.Write([]byte("v"))
		rd.Read(make([]byte, 64))
	}
	if st := rd.(interface{ ReadStats() arcreg.ReadStats }).ReadStats(); st.Ops != 5 {
		t.Fatalf("read ops = %d", st.Ops)
	}
	if ws := w.(interface{ WriteStats() arcreg.WriteStats }).WriteStats(); ws.Ops != 5 {
		t.Fatalf("write ops = %d", ws.Ops)
	}
}

func TestPublicLimitsDocumented(t *testing.T) {
	if arcreg.MaxARCReaders != 1<<32-2 {
		t.Fatalf("MaxARCReaders = %d", arcreg.MaxARCReaders)
	}
	if arcreg.MaxRFReaders != 58 {
		t.Fatalf("MaxRFReaders = %d", arcreg.MaxRFReaders)
	}
	if _, err := arcreg.NewRF(arcreg.Config{MaxReaders: 59}); err == nil {
		t.Fatal("RF accepted 59 readers")
	}
}

func TestPublicMNRegister(t *testing.T) {
	reg, err := arcreg.NewMN(arcreg.MNConfig{Writers: 2, Readers: 2, MaxValueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Writers() != 2 || reg.Readers() != 2 || reg.MaxValueSize() != 64 {
		t.Fatal("MN accessors wrong")
	}
	w0, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Write([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	v, err := rd.View()
	if err != nil || string(v) != "alpha" {
		t.Fatalf("view: %q %v", v, err)
	}
	t0 := rd.LastTag()
	if err := w1.Write([]byte("beta")); err != nil {
		t.Fatal(err)
	}
	v, _ = rd.View()
	if string(v) != "beta" {
		t.Fatalf("after w1: %q", v)
	}
	if !t0.Less(rd.LastTag()) {
		t.Fatal("tag did not advance across writers")
	}
	w0.Close()
	w1.Close()
	rd.Close()
}

// The public API under real concurrency: hammer ARC through the facade
// and check handles behave.
func TestPublicConcurrentSmoke(t *testing.T) {
	reg, err := arcreg.NewARC(arcreg.Config{MaxReaders: 4, MaxValueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			buf := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rd.Read(buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	w := reg.Writer()
	for i := 0; i < 5000; i++ {
		if err := w.Write([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestPublicFreshness(t *testing.T) {
	reg, err := arcreg.NewARC(arcreg.Config{MaxReaders: 1, MaxValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := reg.NewReader()
	probe, ok := rd.(arcreg.FreshnessProber)
	if !ok {
		t.Fatal("ARC reader is not a FreshnessProber")
	}
	if probe.Fresh() {
		t.Fatal("unread ARC handle reports fresh")
	}
	reg.Writer().Write([]byte("v1"))
	rd.Read(make([]byte, 32))
	if !probe.Fresh() {
		t.Fatal("just-read handle reports stale")
	}
	reg.Writer().Write([]byte("v2"))
	if probe.Fresh() {
		t.Fatal("stale handle reports fresh")
	}

	// Peterson cannot answer without a read.
	p, _ := arcreg.NewPeterson(arcreg.Config{MaxReaders: 1, MaxValueSize: 32})
	prd, _ := p.NewReader()
	if _, ok := prd.(arcreg.FreshnessProber); ok {
		t.Fatal("Peterson claimed freshness support")
	}
}

func TestPublicDynamicBuffers(t *testing.T) {
	reg, err := arcreg.NewARC(arcreg.Config{MaxReaders: 1, MaxValueSize: 1 << 20},
		arcreg.WithDynamicBuffers())
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := reg.NewReader()
	for i := 0; i < 20; i++ {
		val := make([]byte, 10+i*1000)
		for j := range val {
			val[j] = byte(i)
		}
		if err := reg.Writer().Write(val); err != nil {
			t.Fatal(err)
		}
		v, err := rd.(arcreg.Viewer).View()
		if err != nil || len(v) != len(val) {
			t.Fatalf("view %d bytes, %v; want %d", len(v), err, len(val))
		}
	}
}
