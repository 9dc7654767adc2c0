// Package regtest is the cross-algorithm conformance battery: one set of
// behavioral requirements, applied uniformly to every register
// implementation in the repository through the harness registry. The
// per-package tests probe each algorithm's internals; this suite pins the
// shared contract (register.Register/Reader/Writer semantics) so the
// implementations cannot drift apart — any new register added to the
// harness is automatically held to it.
package regtest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"arcreg/internal/harness"
	"arcreg/internal/membuf"
	"arcreg/internal/register"
)

// Constructor builds a register for one battery case. Implementations
// fail the test on construction errors.
type Constructor func(t *testing.T, readers, size int, initial []byte) register.Register

// Conformance runs the full battery against the named algorithm.
func Conformance(t *testing.T, alg harness.Algorithm) {
	t.Helper()
	ConformanceConstructor(t, func(t *testing.T, readers, size int, initial []byte) register.Register {
		t.Helper()
		r, err := harness.NewRegister(alg, register.Config{
			MaxReaders:   readers,
			MaxValueSize: size,
			Initial:      initial,
		})
		if err != nil {
			t.Fatalf("construct %s: %v", alg, err)
		}
		return r
	})
}

// ConformanceConstructor runs the full battery against registers built
// by mk — the hook that holds adapters and facades (not just the raw
// algorithms) to the shared contract.
func ConformanceConstructor(t *testing.T, mk Constructor) {
	t.Helper()

	t.Run("identity", func(t *testing.T) {
		r := mk(t, 2, 64, nil)
		if r.Name() == "" {
			t.Error("empty Name()")
		}
		if r.MaxReaders() != 2 {
			t.Errorf("MaxReaders() = %d", r.MaxReaders())
		}
		if r.MaxValueSize() != 64 {
			t.Errorf("MaxValueSize() = %d", r.MaxValueSize())
		}
		if r.Writer() == nil {
			t.Error("nil Writer()")
		}
	})

	t.Run("initial-value", func(t *testing.T) {
		r := mk(t, 1, 32, []byte("genesis"))
		rd, err := r.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		buf := make([]byte, 32)
		n, err := rd.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != "genesis" {
			t.Errorf("initial read %q", buf[:n])
		}
	})

	t.Run("roundtrip", func(t *testing.T) {
		r := mk(t, 1, 128, nil)
		rd, _ := r.NewReader()
		defer rd.Close()
		w := r.Writer()
		buf := make([]byte, 128)
		for i := 0; i < 64; i++ {
			val := []byte(fmt.Sprintf("value-%03d", i))
			if err := w.Write(val); err != nil {
				t.Fatal(err)
			}
			n, err := rd.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[:n], val) {
				t.Fatalf("iteration %d: %q != %q", i, buf[:n], val)
			}
		}
	})

	t.Run("variable-sizes", func(t *testing.T) {
		r := mk(t, 1, 256, nil)
		rd, _ := r.NewReader()
		defer rd.Close()
		buf := make([]byte, 256)
		for _, size := range []int{0, 1, 7, 8, 9, 63, 64, 255, 256} {
			val := bytes.Repeat([]byte{byte(size)}, size)
			if err := r.Writer().Write(val); err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			n, err := rd.Read(buf)
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			if n != size || !bytes.Equal(buf[:n], val) {
				t.Fatalf("size %d read back as %d bytes", size, n)
			}
		}
	})

	t.Run("oversized-write", func(t *testing.T) {
		r := mk(t, 1, 16, nil)
		if err := r.Writer().Write(make([]byte, 17)); !errors.Is(err, register.ErrValueTooLarge) {
			t.Errorf("got %v", err)
		}
		// The register keeps working after a rejected write.
		if err := r.Writer().Write([]byte("ok")); err != nil {
			t.Errorf("write after rejection: %v", err)
		}
	})

	t.Run("buffer-too-small", func(t *testing.T) {
		r := mk(t, 1, 32, nil)
		rd, _ := r.NewReader()
		defer rd.Close()
		if err := r.Writer().Write([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		n, err := rd.Read(make([]byte, 3))
		if !errors.Is(err, register.ErrBufferTooSmall) {
			t.Fatalf("err = %v", err)
		}
		if n != 10 {
			t.Fatalf("needed length = %d, want 10", n)
		}
		// And the handle still works with an adequate buffer.
		if _, err := rd.Read(make([]byte, 32)); err != nil {
			t.Fatalf("read after short buffer: %v", err)
		}
	})

	t.Run("capacity-and-recycling", func(t *testing.T) {
		r := mk(t, 2, 16, nil)
		a, err := r.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.NewReader(); !errors.Is(err, register.ErrTooManyReaders) {
			t.Fatalf("over-capacity NewReader: %v", err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		c, err := r.NewReader()
		if err != nil {
			t.Fatalf("NewReader after Close: %v", err)
		}
		b.Close()
		c.Close()
	})

	t.Run("closed-handle", func(t *testing.T) {
		r := mk(t, 1, 16, nil)
		rd, _ := r.NewReader()
		if err := rd.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Read(make([]byte, 16)); !errors.Is(err, register.ErrReaderClosed) {
			t.Errorf("Read after close: %v", err)
		}
		if err := rd.Close(); !errors.Is(err, register.ErrReaderClosed) {
			t.Errorf("double Close: %v", err)
		}
	})

	t.Run("view-consistency", func(t *testing.T) {
		r := mk(t, 1, 64, nil)
		if !r.Caps().ZeroCopyView {
			t.Skip("no zero-copy view")
		}
		rd, _ := r.NewReader()
		defer rd.Close()
		scratch := make([]byte, 64)
		for i := 0; i < 16; i++ {
			val := []byte(fmt.Sprintf("view-%02d", i))
			if err := r.Writer().Write(val); err != nil {
				t.Fatal(err)
			}
			got, err := rd.View()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, val) {
				t.Fatalf("view %q want %q", got, val)
			}
			// Release the pin before the next write: for the lock and
			// Left-Right registers a live view BLOCKS the writer (their
			// documented semantics), and writer and viewer share this
			// goroutine. A copying Read leaves no pin behind on any
			// implementation.
			if _, err := rd.Read(scratch); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("freshness-contract", func(t *testing.T) {
		r := mk(t, 1, 32, nil)
		if !r.Caps().FreshProbe {
			t.Skip("no freshness probe")
		}
		rd, _ := r.NewReader()
		defer rd.Close()
		if rd.Fresh() {
			t.Error("unread handle fresh")
		}
		rd.Read(make([]byte, 32))
		if !rd.Fresh() {
			t.Error("just-read handle not fresh")
		}
		r.Writer().Write([]byte("new"))
		if rd.Fresh() {
			t.Error("stale handle fresh")
		}
	})

	// Every handle has the whole method set; a capability the register's
	// Caps deny answers as Caps says, and the counters count either way.
	t.Run("degraded-methods", func(t *testing.T) {
		r := mk(t, 1, 32, []byte("genesis"))
		caps := r.Caps()
		rd, _ := r.NewReader()
		defer rd.Close()
		const reads = 3
		for i := 0; i < reads; i++ {
			if _, err := rd.Read(make([]byte, 32)); err != nil {
				t.Fatal(err)
			}
		}
		if got := rd.Fresh(); got != caps.FreshProbe {
			t.Errorf("Fresh after a read = %v, want Caps.FreshProbe = %v", got, caps.FreshProbe)
		}
		if st := rd.ReadStats(); st.Ops != reads {
			t.Errorf("ReadStats().Ops = %d after %d reads", st.Ops, reads)
		}
		v, err := rd.View()
		switch {
		case !caps.ZeroCopyView && !errors.Is(err, register.ErrNoView):
			t.Errorf("View without Caps.ZeroCopyView: err = %v, want ErrNoView", err)
		case caps.ZeroCopyView && (err != nil || string(v) != "genesis"):
			t.Errorf("View = %q, %v; want %q", v, err, "genesis")
		}
		// Release a view's pin (lock, Left-Right) before the write.
		if _, err := rd.Read(make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
		w := r.Writer()
		if err := w.Write([]byte("next")); err != nil {
			t.Fatal(err)
		}
		if st := w.WriteStats(); st.Ops == 0 {
			t.Error("WriteStats().Ops = 0 after a write")
		}
	})

	t.Run("concurrent-integrity", func(t *testing.T) {
		const (
			readers = 3
			writes  = 800
			size    = 256
		)
		seed := make([]byte, size)
		membuf.Encode(seed, 0)
		r := mk(t, readers, size, seed)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		errs := make(chan error, readers)
		for i := 0; i < readers; i++ {
			rd, err := r.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer rd.Close()
				dst := make([]byte, size)
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					n, err := rd.Read(dst)
					if err != nil {
						errs <- err
						return
					}
					ver, err := membuf.Verify(dst[:n])
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
			if err := r.Writer().Write(buf); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}
