package arcreg_test

// Black-box tests of the public API: everything an importing application
// can reach must work as documented, for the byte register Reg.Register
// exposes under every algorithm New builds.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"arcreg"
)

// byteRegister builds a (1,N) byte register through New: the Raw codec
// over alg, with the given reader capacity and value bound.
func byteRegister(t testing.TB, alg arcreg.AlgorithmID, readers, size int, opts ...arcreg.Option) arcreg.Register {
	t.Helper()
	reg, err := arcreg.New[[]byte](append([]arcreg.Option{
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithAlgorithm(alg),
		arcreg.WithReaders(readers),
		arcreg.WithMaxValueSize(size),
	}, opts...)...)
	if err != nil {
		t.Fatalf("New[%s]: %v", alg, err)
	}
	return reg.Register()
}

type factory struct {
	alg     arcreg.AlgorithmID
	hasView bool
}

func factories() []factory {
	return []factory{
		{arcreg.ARC, true},
		{arcreg.RF, true},
		{arcreg.Peterson, false},
		{arcreg.Lock, true},
		{arcreg.Seqlock, false},
		{arcreg.LeftRight, true},
	}
}

func TestPublicRoundTripAllAlgorithms(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.alg.String(), func(t *testing.T) {
			reg := byteRegister(t, f.alg, 4, 128)
			if reg.Name() != f.alg.String() {
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
		reg := byteRegister(t, f.alg, 2, 64)
		if err := reg.Writer().Write([]byte("zero-copy")); err != nil {
			t.Fatal(err)
		}
		rd, _ := reg.NewReader()
		viewer, ok := rd.(arcreg.Viewer)
		if ok != f.hasView {
			t.Fatalf("%s: View support = %v, want %v", f.alg, ok, f.hasView)
		}
		if ok {
			if v, err := viewer.View(); err != nil || string(v) != "zero-copy" {
				t.Fatalf("%s: view = %q, %v", f.alg, v, err)
			}
		}
		rd.Close()
	}
}

func TestPublicErrors(t *testing.T) {
	reg := byteRegister(t, arcreg.ARC, 1, 8)
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

func TestPublicStats(t *testing.T) {
	reg := byteRegister(t, arcreg.ARC, 1, 64)
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
	if _, err := arcreg.New[[]byte](arcreg.WithAlgorithm(arcreg.RF), arcreg.WithReaders(59)); err == nil {
		t.Fatal("RF accepted 59 readers")
	}
}

// The public API under real concurrency: hammer ARC through the facade
// and check handles behave.
func TestPublicConcurrentSmoke(t *testing.T) {
	reg := byteRegister(t, arcreg.ARC, 4, 64)
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
	reg := byteRegister(t, arcreg.ARC, 1, 32)
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
	prd, _ := byteRegister(t, arcreg.Peterson, 1, 32).NewReader()
	if _, ok := prd.(arcreg.FreshnessProber); ok {
		t.Fatal("Peterson claimed freshness support")
	}
}

// TestPublicDynamicBuffers: WithDynamicValues gives New's ARC register
// the §3.3 exact-size buffers, so a view outlives the handle's later
// reads — no writer ever touches a retired buffer again. With the
// pre-allocated slots (three here) later writes would overwrite it.
func TestPublicDynamicBuffers(t *testing.T) {
	reg := byteRegister(t, arcreg.ARC, 1, 1<<20, arcreg.WithDynamicValues())
	rd, _ := reg.NewReader()
	var views [][]byte
	for i := 0; i < 20; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 10+i*1000)
		if err := reg.Writer().Write(val); err != nil {
			t.Fatal(err)
		}
		v, err := rd.(arcreg.Viewer).View()
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("view %d bytes, %v; want %d", len(v), err, len(val))
		}
		views = append(views, v)
	}
	for i, v := range views {
		if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 10+i*1000)) {
			t.Fatalf("view %d changed after later writes", i)
		}
	}
}
