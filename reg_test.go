package arcreg_test

// Tests for the generics-first facade: New's option handling, the
// capability-complete handles, the values Watch delivers — and the full
// regtest conformance battery run THROUGH the typed handles (New +
// Raw codec + TypedWriter/TypedReader adapted back to the byte
// contract), so the facade plumbing is held to exactly the same
// behavioral requirements as the raw algorithms.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"arcreg"
	"arcreg/internal/register"
	"arcreg/internal/regtest"
)

// facadeAlgs maps every (1,N) algorithm the facade constructs to the
// number of readers its battery deployments need.
var facadeAlgs = []arcreg.AlgorithmID{
	arcreg.ARC, arcreg.RF, arcreg.Peterson, arcreg.Lock,
	arcreg.Seqlock, arcreg.LeftRight,
}

// handleRegister adapts a *Reg[[]byte] and its typed handles to the
// register.Register contract: every battery operation travels through
// the facade's TypedWriter/TypedReader, not the raw register.
type handleRegister struct {
	reg *arcreg.Reg[[]byte]
	w   *arcreg.TypedWriter[[]byte]
}

func (h *handleRegister) Name() string            { return h.reg.Algorithm().String() }
func (h *handleRegister) MaxReaders() int         { return h.reg.Readers() }
func (h *handleRegister) MaxValueSize() int       { return h.reg.MaxValueSize() }
func (h *handleRegister) Writer() register.Writer { return (*handleWriter)(h) }

func (h *handleRegister) NewReader() (register.Reader, error) {
	tr, err := h.reg.NewReader()
	if err != nil {
		return nil, err
	}
	caps := h.reg.Caps()
	base := handleReader{tr: tr}
	switch {
	case caps.ZeroCopyView && caps.FreshProbe:
		return &freshViewerReader{viewerReader{base}}, nil
	case caps.ZeroCopyView:
		return &viewerReader{base}, nil
	default:
		return &base, nil
	}
}

// handleWriter funnels battery writes through TypedWriter.SetBytes.
type handleWriter handleRegister

func (h *handleWriter) Write(p []byte) error { return h.w.SetBytes(p) }

type handleReader struct {
	tr *arcreg.TypedReader[[]byte]
}

func (r *handleReader) Read(dst []byte) (int, error) { return r.tr.ReadBytes(dst) }
func (r *handleReader) Close() error                 { return r.tr.Close() }

// viewerReader adds Viewer for algorithms whose Caps promise it, and
// freshViewerReader adds FreshnessProber on top — the battery's
// capability subtests run exactly when the facade's Caps say they
// should.
type viewerReader struct{ handleReader }

func (r *viewerReader) View() ([]byte, error) { return r.tr.ViewBytes() }

type freshViewerReader struct{ viewerReader }

func (r *freshViewerReader) Fresh() bool { return r.tr.Fresh() }

// TestFacadeConformance runs the cross-algorithm battery through the
// facade handles for every algorithm New constructs.
func TestFacadeConformance(t *testing.T) {
	for _, alg := range facadeAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			regtest.ConformanceConstructor(t, func(t *testing.T, readers, size int, initial []byte) register.Register {
				t.Helper()
				reg, err := arcreg.New[[]byte](
					arcreg.WithAlgorithm(alg),
					arcreg.WithReaders(readers),
					arcreg.WithMaxValueSize(size),
					arcreg.WithCodec(arcreg.Raw()),
					arcreg.WithInitialBytes(initial),
				)
				if err != nil {
					t.Fatalf("New[%s]: %v", alg, err)
				}
				w, err := reg.NewWriter()
				if err != nil {
					t.Fatalf("NewWriter[%s]: %v", alg, err)
				}
				return &handleRegister{reg: reg, w: w}
			})
		})
	}
}

// TestFacadeDefaults: New with no options is an ARC register over JSON
// seeded with the zero value.
func TestFacadeDefaults(t *testing.T) {
	type limits struct {
		RPS   int `json:"rps"`
		Burst int `json:"burst"`
	}
	reg, err := arcreg.New[limits]()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Algorithm() != arcreg.ARC {
		t.Errorf("default algorithm = %s, want arc", reg.Algorithm())
	}
	if reg.Writers() != 1 {
		t.Errorf("Writers() = %d", reg.Writers())
	}
	if got := reg.Codec().Name(); got != "json" {
		t.Errorf("default codec = %q, want json", got)
	}
	caps := reg.Caps()
	if !caps.ZeroCopyView || !caps.FreshProbe || !caps.WaitFreeRead || !caps.WaitFreeWrite {
		t.Errorf("ARC caps incomplete: %+v", caps)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	v, err := rd.Get()
	if err != nil {
		t.Fatalf("Get before first Set: %v", err)
	}
	if v != (limits{}) {
		t.Errorf("zero-value seed decoded to %+v", v)
	}
	if err := reg.Set(limits{RPS: 100, Burst: 250}); err != nil {
		t.Fatal(err)
	}
	if v, err = rd.Get(); err != nil || v.RPS != 100 || v.Burst != 250 {
		t.Errorf("Get = %+v, %v", v, err)
	}
	if !rd.Fresh() {
		t.Error("just-read handle not fresh")
	}
	if st := rd.ReadStats(); st.Ops != 2 {
		t.Errorf("ReadStats.Ops = %d, want 2", st.Ops)
	}
}

// TestFacadeEveryAlgorithm drives a typed set/get round trip over each
// algorithm, exercising both the viewer and the copying decode paths.
func TestFacadeEveryAlgorithm(t *testing.T) {
	for _, alg := range facadeAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			reg, err := arcreg.New[map[string]int](
				arcreg.WithAlgorithm(alg),
				arcreg.WithReaders(2),
				arcreg.WithMaxValueSize(256),
			)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			// A (1,N) writer handle is identity 0 and its Close is a no-op
			// that may repeat: no (1,N) register's writer has an ID or a
			// Close for the handle to forward to.
			w, err := reg.NewWriter()
			if err != nil {
				t.Fatal(err)
			}
			if id := w.ID(); id != 0 {
				t.Errorf("writer ID() = %d, want 0", id)
			}
			for i := 1; i <= 2; i++ {
				if err := w.Close(); err != nil {
					t.Fatalf("writer Close #%d: %v", i, err)
				}
			}
			if err := w.Set(map[string]int{"a": 1, "b": 2}); err != nil {
				t.Fatalf("Set after Close: %v", err)
			}
			v, err := rd.Get()
			if err != nil {
				t.Fatal(err)
			}
			if v["a"] != 1 || v["b"] != 2 {
				t.Errorf("Get = %v", v)
			}
			if _, err := rd.ViewBytes(); !reg.Caps().ZeroCopyView {
				if !errors.Is(err, arcreg.ErrNoView) {
					t.Errorf("ViewBytes without views: err = %v, want ErrNoView", err)
				}
			} else if err != nil {
				t.Errorf("ViewBytes: %v", err)
			}
		})
	}
}

// TestFacadeMN: WithWriters selects the (M,N) composition; handles keep
// the full capability surface (freshness probe included, via the new
// composite Fresh).
func TestFacadeMN(t *testing.T) {
	reg, err := arcreg.New[string](
		arcreg.WithWriters(3),
		arcreg.WithReaders(2),
		arcreg.WithCodec(arcreg.String()),
		arcreg.WithMaxValueSize(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Register() != nil {
		t.Fatal("MN shape not selected")
	}
	if reg.Writers() != 3 || reg.Readers() != 2 || reg.MaxValueSize() != 64 {
		t.Errorf("Writers, Readers, MaxValueSize = %d, %d, %d; want 3, 2, 64",
			reg.Writers(), reg.Readers(), reg.MaxValueSize())
	}
	if !reg.Caps().FreshProbe || !reg.Caps().ZeroCopyView {
		t.Errorf("MN caps incomplete: %+v", reg.Caps())
	}

	w0, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	if w0.ID() == w1.ID() {
		t.Errorf("writer identities collide: %d", w0.ID())
	}

	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if err := w0.Set("from w0"); err != nil {
		t.Fatal(err)
	}
	if err := w1.Set("from w1"); err != nil {
		t.Fatal(err)
	}
	v, err := rd.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v != "from w1" {
		t.Errorf("Get = %q, want the outbidding write", v)
	}
	if !rd.Fresh() {
		t.Error("just-read MN handle not fresh")
	}
	if err := w0.Set("again"); err != nil {
		t.Fatal(err)
	}
	if rd.Fresh() {
		t.Error("stale MN handle reports fresh")
	}
	if v, _ = rd.Get(); v != "again" {
		t.Errorf("Get after republish = %q", v)
	}
	tagged, ok := rd.Reader().(interface{ LastTag() arcreg.MNTag })
	if !ok || tagged.LastTag().Seq == 0 {
		t.Error("MN tag access through Reader() lost")
	}

	// Close releases the identity for reuse.
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := reg.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter after Close: %v", err)
	}
	w2.Close()
}

// TestFacadeOptionValidation pins the construction-time errors.
func TestFacadeOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		err  string
		opts []arcreg.Option
	}{
		{"writers-need-arc", "requires the ARC algorithm", []arcreg.Option{
			arcreg.WithAlgorithm(arcreg.RF), arcreg.WithWriters(2)}},
		{"zero-writers", "must be positive", []arcreg.Option{arcreg.WithWriters(-1)}},
		// WithDynamicValues is the one ARC-only option New takes.
		{"arc-opts-on-rf", "(1,N) ARC register only", []arcreg.Option{
			arcreg.WithAlgorithm(arcreg.RF), arcreg.WithDynamicValues()}},
		{"arc-opts-on-mn", "(1,N) ARC register only", []arcreg.Option{
			arcreg.WithWriters(2), arcreg.WithDynamicValues()}},
		{"initial-conflict", "mutually exclusive", []arcreg.Option{
			arcreg.WithInitial(1), arcreg.WithInitialBytes([]byte("1"))}},
		{"codec-type-mismatch", "not a Codec", []arcreg.Option{arcreg.WithCodec(arcreg.String())}},
		{"initial-type-mismatch", "not a", []arcreg.Option{arcreg.WithInitial("nope")}},
		{"zero-value-too-large", "zero value needs", []arcreg.Option{
			arcreg.WithCodec[int](fixedInt{}), arcreg.WithMaxValueSize(4)}},
		{"negative-max-value-size", "must be positive", []arcreg.Option{arcreg.WithMaxValueSize(-5)}},
		{"negative-max-value-size-mn", "must be positive", []arcreg.Option{
			arcreg.WithWriters(2), arcreg.WithMaxValueSize(-5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := arcreg.New[int](tc.opts...)
			if err == nil {
				t.Fatal("New succeeded, want error")
			}
			if !contains(err.Error(), tc.err) {
				t.Errorf("error %q does not mention %q", err, tc.err)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFacadeInitial: WithInitial seeds through the codec.
func TestFacadeInitial(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithInitial(42), arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Get()
	if err != nil || v != 42 {
		t.Fatalf("Get = %d, %v; want 42", v, err)
	}
}

// watchShapes is every register shape Watch serves: the six (1,N)
// algorithms and the (M,N) composition.
var watchShapes = []struct {
	name string
	opts []arcreg.Option
}{
	{"arc", nil},
	{"rf", []arcreg.Option{arcreg.WithAlgorithm(arcreg.RF)}},
	{"peterson", []arcreg.Option{arcreg.WithAlgorithm(arcreg.Peterson)}},
	{"lock", []arcreg.Option{arcreg.WithAlgorithm(arcreg.Lock)}},
	{"seqlock", []arcreg.Option{arcreg.WithAlgorithm(arcreg.Seqlock)}},
	{"leftright", []arcreg.Option{arcreg.WithAlgorithm(arcreg.LeftRight)}},
	{"mn", []arcreg.Option{arcreg.WithWriters(2)}},
}

// TestFacadeValues pins the values Watch delivers on every shape, over
// each post-wake change check — the combined probe-and-fetch (ARC,
// (M,N)), the probe (RF) and copy-and-compare (Peterson, seqlock, lock,
// Left-Right): it must yield the initial value, then values that never
// go backwards, never the same publication twice in a row, ending at
// the final write.
func TestFacadeValues(t *testing.T) {
	for _, shape := range watchShapes {
		t.Run(shape.name, func(t *testing.T) {
			const final = 20
			opts := append([]arcreg.Option{arcreg.WithReaders(2)}, shape.opts...)
			reg, err := arcreg.New[int](opts...)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()

			start := make(chan struct{})
			publish := sync.OnceFunc(func() { close(start) })
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 1; i <= final; i++ {
					if err := reg.Set(i); err != nil {
						t.Errorf("Set(%d): %v", i, err)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var got []int
			for v, err := range rd.Watch(ctx) {
				if err != nil {
					t.Errorf("Watch after %v: %v", got, err)
					break
				}
				got = append(got, v)
				publish() // the initial value is in
				if v == final {
					break
				}
			}
			publish()
			wg.Wait()
			if len(got) == 0 || got[0] != 0 || got[len(got)-1] != final {
				t.Fatalf("Watch yielded %v, want 0 first and %d last", got, final)
			}
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					t.Fatalf("Watch regressed: %v", got)
				}
				if got[i] == got[i-1] {
					t.Fatalf("Watch yielded unchanged publication twice: %v", got)
				}
			}
		})
	}
}

// TestFacadeValuesStopsOnBreak: breaking the range loop over Watch
// terminates the iterator promptly (the yield false path).
func TestFacadeValuesStopsOnBreak(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	n := 0
	for range rd.Watch(context.Background()) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("yielded %d times before break", n)
	}
}

// TestFacadeDefaultReadersClamped: the GOMAXPROCS reader default must
// be clamped to the algorithm's architectural bound, so algorithm
// selection works out of the box on many-core machines (RF allows only
// 58 readers).
func TestFacadeDefaultReadersClamped(t *testing.T) {
	old := runtime.GOMAXPROCS(64)
	defer runtime.GOMAXPROCS(old)
	reg, err := arcreg.New[int](arcreg.WithAlgorithm(arcreg.RF))
	if err != nil {
		t.Fatalf("New[RF] at GOMAXPROCS=64: %v", err)
	}
	if got := reg.Readers(); got > arcreg.MaxRFReaders {
		t.Errorf("Readers() = %d > RF limit %d", got, arcreg.MaxRFReaders)
	}
}

// TestFacadeOneShotGetOwnsResult: the one-shot Reg.Get must return
// caller-owned data even under the aliasing Raw codec — the temporary
// handle is closed before Get returns, so a slot alias would dangle.
func TestFacadeOneShotGetOwnsResult(t *testing.T) {
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(2), arcreg.WithMaxValueSize(64))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("one-shot-owned-payload")
	if err := reg.Set(want); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Get()
	if err != nil {
		t.Fatal(err)
	}
	// Recycle every slot: with no handle pinning anything, the slot the
	// one-shot read saw gets rewritten.
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i := 0; i < 8; i++ {
		if err := reg.Set(bytes.Repeat([]byte{byte('0' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("one-shot Get result mutated by slot recycling: %q", got)
	}
}

// TestFacadeSetRecoversAfterWriterRelease: a Set that lost the race for
// an (M,N) writer identity must succeed once one is released — the
// failure is not cached.
func TestFacadeSetRecoversAfterWriterRelease(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithWriters(2), arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	w0, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	if err := reg.Set(1); err == nil {
		t.Fatal("Set succeeded with all writer identities taken")
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Set(2); err != nil {
		t.Fatalf("Set after identity release: %v", err)
	}
	v, err := reg.Get()
	if err != nil || v != 2 {
		t.Fatalf("Get = %d, %v", v, err)
	}
}

// setWithin runs reg.Set(v) and fails the test if it has not returned
// within d — a pinned view on the lock and Left-Right registers blocks
// the writer with no time limit, so the Set runs in its own goroutine.
func setWithin(t *testing.T, reg *arcreg.Reg[int], v int, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- reg.Set(v) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("Set(%d) still blocked after %v: a reader handle pins a view", v, d)
	}
}

// TestFacadeValuesDoesNotPinViews: on the lock and Left-Right registers
// a Watch parked between changes must hold no view — a pinned read lock
// or reader indicator would block the writer for as long as the watcher
// stays parked.
func TestFacadeValuesDoesNotPinViews(t *testing.T) {
	for _, alg := range []arcreg.AlgorithmID{arcreg.Lock, arcreg.LeftRight} {
		t.Run(alg.String(), func(t *testing.T) {
			reg, err := arcreg.New[int](
				arcreg.WithAlgorithm(alg), arcreg.WithReaders(1))
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			first := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for v, err := range rd.Watch(ctx) {
					if err != nil {
						t.Errorf("Watch: %v", err)
						return
					}
					if v == 0 {
						close(first)
					}
					if v == 7 {
						return
					}
				}
			}()
			<-first
			time.Sleep(20 * time.Millisecond) // the watcher is now parked
			setWithin(t, reg, 7, time.Second)
			<-done
		})
	}
}

// TestFacadeGetThenSet: a reader that Gets once and then idles must not
// hold the writer back on any algorithm. On the lock and Left-Right
// registers a Get decoded from a view would keep the read lock or
// reader indicator until the handle's next operation.
func TestFacadeGetThenSet(t *testing.T) {
	for _, alg := range facadeAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			reg, err := arcreg.New[int](arcreg.WithAlgorithm(alg), arcreg.WithReaders(1))
			if err != nil {
				t.Fatal(err)
			}
			rd, err := reg.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if _, err := rd.Get(); err != nil {
				t.Fatal(err)
			}
			setWithin(t, reg, 1, time.Second)
			if v, err := rd.Get(); err != nil || v != 1 {
				t.Fatalf("Get after Set = %d, %v; want 1", v, err)
			}
		})
	}
}

// TestFacadeRawZeroSeed: the zero-value seed survives codecs whose zero
// encoding is nil (Raw) — the first Get must see the empty value, not
// the registers' one-zero-byte default.
func TestFacadeRawZeroSeed(t *testing.T) {
	reg, err := arcreg.New[[]byte](arcreg.WithCodec(arcreg.Raw()), arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Get()
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Errorf("Get before first Set = %v, want the empty zero value", v)
	}

	// Same through WithInitial of a nil-encoding value.
	reg2, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()), arcreg.WithReaders(1),
		arcreg.WithInitial([]byte(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if v, err = reg2.Get(); err != nil || len(v) != 0 {
		t.Errorf("Get of nil WithInitial = %v, %v; want empty", v, err)
	}
}

// fixedInt is a user-implemented Codec[int], the path WithCodec opens
// to any wire format: 8-byte little-endian, refusing negative values so
// tests can drive the encode-error path.
type fixedInt struct{}

var errNegative = errors.New("fixedInt: negative value")

func (fixedInt) Encode(v int) ([]byte, error) {
	if v < 0 {
		return nil, errNegative
	}
	return binary.LittleEndian.AppendUint64(nil, uint64(v)), nil
}

func (fixedInt) Decode(p []byte) (int, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("fixedInt: %d bytes, want 8", len(p))
	}
	return int(binary.LittleEndian.Uint64(p)), nil
}

func (fixedInt) Name() string { return "fixed-int" }

// TestTypedCustomCodec: a user-implemented Codec round-trips through
// WithCodec, the zero-value seed included.
func TestTypedCustomCodec(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithCodec[int](fixedInt{}),
		arcreg.WithReaders(1), arcreg.WithMaxValueSize(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Codec().Name(); got != "fixed-int" {
		t.Errorf("Codec().Name() = %q", got)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if v, err := rd.Get(); err != nil || v != 0 {
		t.Fatalf("Get before first Set = %d, %v; want the zero value", v, err)
	}
	for _, want := range []int{0xDEADBEEF, 1, 0, 1 << 31} {
		if err := reg.Set(want); err != nil {
			t.Fatal(err)
		}
		if got, err := rd.Get(); err != nil || got != want {
			t.Fatalf("Get = %#x, %v; want %#x", got, err, want)
		}
	}
}

// TestTypedEncodeErrorsSurface: a codec's encode error surfaces from
// TypedWriter.Set wrapped so errors.Is still matches, and nothing is
// published.
func TestTypedEncodeErrorsSurface(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithCodec[int](fixedInt{}), arcreg.WithReaders(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Set(-1); !errors.Is(err, errNegative) {
		t.Fatalf("Set err = %v, want errNegative", err)
	}
	if v, err := reg.Get(); err != nil || v != 0 {
		t.Fatalf("Get after failed Set = %d, %v; want the zero seed", v, err)
	}
}

// TestTypedOversizedValueRejected: a typed Set whose encoding exceeds
// WithMaxValueSize fails with ErrValueTooLarge in both shapes. (A zero
// value that does not fit fails at construction; see
// TestFacadeOptionValidation.)
func TestTypedOversizedValueRejected(t *testing.T) {
	for _, writers := range []int{1, 2} {
		reg, err := arcreg.New[string](arcreg.WithWriters(writers),
			arcreg.WithReaders(1), arcreg.WithMaxValueSize(64))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Set(strings.Repeat("x", 200)); !errors.Is(err, arcreg.ErrValueTooLarge) {
			t.Errorf("writers=%d: oversized Set: %v", writers, err)
		}
	}
}

// TestTypedConcurrent: concurrent typed readers never see a decoded
// generation go backwards while the writer publishes.
func TestTypedConcurrent(t *testing.T) {
	type config struct {
		Generation int      `json:"generation"`
		Flags      []string `json:"flags"`
	}
	reg, err := arcreg.New[config](arcreg.WithReaders(4), arcreg.WithMaxValueSize(2048))
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
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				cfg, err := rd.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if cfg.Generation < last {
					t.Errorf("generation regressed: %d after %d", cfg.Generation, last)
					return
				}
				last = cfg.Generation
			}
		}()
	}
	for gen := 1; gen <= 500; gen++ {
		if err := reg.Set(config{Generation: gen, Flags: []string{"x"}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTypedMNRoundtrip covers the typed (M,N) path: M writers publish
// typed values through their own handles, a reader decodes the freshest
// one, and its tags stay monotone.
func TestTypedMNRoundtrip(t *testing.T) {
	type state struct {
		Writer int
		Round  int
	}
	reg, err := arcreg.New[state](arcreg.WithWriters(3),
		arcreg.WithReaders(2), arcreg.WithMaxValueSize(256))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// The zero value seeds the register: a Get before any Set decodes.
	got, err := rd.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got != (state{}) {
		t.Fatalf("genesis value = %+v", got)
	}

	var writers []*arcreg.TypedWriter[state]
	for i := 0; i < 3; i++ {
		w, err := reg.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		writers = append(writers, w)
	}
	tagged := rd.Reader().(interface{ LastTag() arcreg.MNTag })
	last := tagged.LastTag()
	for round := 1; round <= 5; round++ {
		for _, w := range writers {
			if err := w.Set(state{Writer: w.ID(), Round: round}); err != nil {
				t.Fatal(err)
			}
			got, err := rd.Get()
			if err != nil {
				t.Fatal(err)
			}
			if got.Writer != w.ID() || got.Round != round {
				t.Fatalf("got %+v after writer %d round %d", got, w.ID(), round)
			}
			tag := tagged.LastTag()
			if tag.Less(last) {
				t.Fatalf("tag regressed: %v after %v", tag, last)
			}
			last = tag
		}
	}
}

// TestTypedMNConcurrent exercises the typed (M,N) path under
// concurrency: every writer publishes its own counter while readers
// decode only values some writer actually published.
func TestTypedMNConcurrent(t *testing.T) {
	type tick struct{ W, N int }
	reg, err := arcreg.New[tick](arcreg.WithWriters(2),
		arcreg.WithReaders(2), arcreg.WithMaxValueSize(128))
	if err != nil {
		t.Fatal(err)
	}
	const perW = 200
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := reg.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
			for n := 1; n <= perW; n++ {
				if err := w.Set(tick{W: w.ID(), N: n}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		rg.Add(1)
		go func() {
			defer rg.Done()
			defer rd.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := rd.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if v.N < 0 || v.N > perW || v.W < 0 || v.W > 1 {
					t.Errorf("impossible value %+v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
}
