package arcreg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/codec"
	"arcreg/internal/leftright"
	"arcreg/internal/lockreg"
	"arcreg/internal/notify"
	"arcreg/internal/peterson"
	"arcreg/internal/register"
	"arcreg/internal/rf"
	"arcreg/internal/seqlock"
)

// AlgorithmID names one of the register constructions New can build.
type AlgorithmID int

// The register constructions, in the order the paper discusses them.
const (
	// ARC is Anonymous Readers Counting — the paper's algorithm and the
	// default: wait-free constant-time reads (zero RMW when unchanged),
	// wait-free amortized constant-time writes, zero-copy views, up to
	// 2³²−2 readers. The only algorithm that composes into (M,N) via
	// WithWriters.
	ARC AlgorithmID = iota
	// RF is the Readers-Field register (Larsson et al., JEA 2009):
	// wait-free, one RMW per read, at most 58 readers.
	RF
	// Peterson is the 1983 construction from single-word registers:
	// wait-free with zero RMW instructions, up to three copies per read.
	Peterson
	// Lock is the reader/writer-spinlock comparator: linearizable but
	// not wait-free.
	Lock
	// Seqlock is the Linux-kernel seqcount pattern: wait-free writes,
	// lock-free (unbounded-retry) reads.
	Seqlock
	// LeftRight is Ramalhete & Correia's 2013 construction: wait-free
	// zero-copy reads over two instances, blocking writes.
	LeftRight
)

// String returns the harness/paper name of the algorithm.
func (a AlgorithmID) String() string {
	switch a {
	case ARC:
		return "arc"
	case RF:
		return "rf"
	case Peterson:
		return "peterson"
	case Lock:
		return "lock"
	case Seqlock:
		return "seqlock"
	case LeftRight:
		return "leftright"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Caps declares which optional capabilities a register's handles
// implement. New resolves it once at construction (see Reg.Caps), so
// application code branches on fields instead of type-asserting
// handles. A false field is advisory, a true one is a promise.
type Caps = register.Caps

// ErrNoView is returned by TypedReader.ViewBytes when the underlying
// register cannot expose values without copying (Peterson and seqlock;
// see Caps.ZeroCopyView).
var ErrNoView = errors.New("arcreg: register does not support zero-copy views")

// config collects the functional options of New and NewMap.
type config struct {
	alg           AlgorithmID
	writers       int
	readers       int
	maxValueSize  int
	initial       any // T, from WithInitial
	hasInitial    bool
	initialRaw    []byte // from WithInitialBytes
	codec         any    // Codec[T], from WithCodec
	arcOpts       []ARCOption
	noFreshGate   bool
	noEpochGate   bool
	shards        int  // NewMap only
	dynamicValues bool // NewMap only
	trace         bool // NewMap only
	traceRings    int  // NewMap only
	traceLanes    int  // NewMap only
}

// Option configures New. Options that carry a typed payload
// (WithInitial, WithCodec) infer their type parameter from the argument
// and are checked against New's T at construction time.
type Option func(*config)

// WithAlgorithm selects the register construction (default ARC).
func WithAlgorithm(a AlgorithmID) Option {
	return func(c *config) { c.alg = a }
}

// WithWriters sets M, the number of concurrent writer handles (default
// 1). M > 1 selects the (M,N) composition of M ARC components with
// tag-based ordering and the freshness-gated collect; it requires the
// ARC algorithm.
func WithWriters(m int) Option {
	return func(c *config) { c.writers = m }
}

// WithReaders sets N, the number of concurrently live reader handles
// (default GOMAXPROCS).
func WithReaders(n int) Option {
	return func(c *config) { c.readers = n }
}

// WithMaxValueSize bounds encoded values in bytes (default 4096; slot
// buffers are pre-allocated at this size).
func WithMaxValueSize(n int) Option {
	return func(c *config) { c.maxValueSize = n }
}

// WithInitial sets the value readers see before the first Set. Without
// it, New seeds the register with the codec's encoding of T's zero
// value, so a Get before the first Set decodes cleanly. The type
// parameter is inferred from v and must match New's T.
func WithInitial[T any](v T) Option {
	return func(c *config) { c.initial = v; c.hasInitial = true }
}

// WithInitialBytes sets the already-encoded initial value — the escape
// hatch when the encoded form is on hand (e.g. replayed from another
// register).
func WithInitialBytes(p []byte) Option {
	return func(c *config) { c.initialRaw = p }
}

// WithCodec selects the encoding (default JSON[T]). The type parameter
// is inferred from cd and must match New's T.
func WithCodec[T any](cd Codec[T]) Option {
	return func(c *config) { c.codec = cd }
}

// WithShards sets the keyed store's shard count, rounded up to a power
// of two (default 8). More shards mean more write-parallelism headroom
// and smaller directories. Valid only for NewMap.
func WithShards(s int) Option {
	return func(c *config) { c.shards = s }
}

// WithDynamicValues selects the §3.3 dynamic-buffer variant for the
// keyed store's per-key registers: every Set allocates an exact-size
// buffer instead of pre-allocating MaxReaders+2 MaxValueSize buffers
// per key — the right choice for maps holding many keys with small
// values. Valid only for NewMap.
func WithDynamicValues() Option {
	return func(c *config) { c.dynamicValues = true }
}

// WithTrace enables the keyed store's always-on flight recorder: every
// single-writer domain under the map — shard writers, wakeup-tree root
// relays, watch sessions — records fixed-size events into owner-plain
// ring buffers, reconstructed on demand into publish→deliver spans and
// per-stage latency breakdowns (Map.Tracer, GET /debug/trace on the
// HTTP handler). Recording adds zero RMW instructions and zero
// allocations to the hot paths it instruments — guard tests pin the
// traced and untraced Get/Set instruction traces bit-identical — at
// the cost of one clock read per publication and ~32 KiB of ring per
// domain. Valid only for NewMap.
func WithTrace() Option {
	return func(c *config) { c.trace = true }
}

// WithTraceRings sets the flight recorder's per-ring event capacity
// (default 1024, rounded up to a power of two) — the visible history
// window per domain. Implies WithTrace. Valid only for NewMap.
func WithTraceRings(events int) Option {
	return func(c *config) { c.trace = true; c.traceRings = events }
}

// WithTraceLanes bounds the flight recorder's watcher-lane pool: the
// maximum number of concurrently traced watch sessions (default 64).
// Sessions beyond the bound run untraced rather than growing the pool.
// Implies WithTrace. Valid only for NewMap.
func WithTraceLanes(n int) Option {
	return func(c *config) { c.trace = true; c.traceLanes = n }
}

// WithARC applies ARC tuning/ablation options (WithoutFastPath,
// WithoutFreeHint, WithStaticReaders, WithDynamicBuffers) to the
// underlying ARC register. Valid only for the (1,N) ARC algorithm.
func WithARC(opts ...ARCOption) Option {
	return func(c *config) { c.arcOpts = append(c.arcOpts, opts...) }
}

// WithoutFreshGate disables the (M,N) freshness-gated collect, forcing
// every scan to fully re-read all M components. Ablation benchmarks
// only; requires WithWriters(m > 1).
func WithoutFreshGate() Option {
	return func(c *config) { c.noFreshGate = true }
}

// WithoutEpochGate keeps the (M,N) per-component freshness probes but
// disables the adaptive epoch gate (the one-load all-fresh scan).
// Ablation and equivalence testing only; requires WithWriters(m > 1).
func WithoutEpochGate() Option {
	return func(c *config) { c.noEpochGate = true }
}

// Reg is a typed multi-word atomic register: the unified handle New
// returns for every algorithm and for both the (1,N) and (M,N) shapes.
// One goroutine per writer handle Sets, up to Readers goroutines Get
// through their own reader handles, all with the underlying register's
// progress guarantees (wait-free end to end over ARC).
//
// Encoding and decoding run outside the register's critical operations
// — encoding before the wait-free write, decoding after the wait-free
// read — so codecs may be arbitrarily expensive without affecting other
// threads' progress.
type Reg[T any] struct {
	c   Codec[T]
	reg Register    // (1,N) shape; nil when mn is set
	mn  *MNRegister // (M,N) shape; nil when reg is set
	alg AlgorithmID

	caps Caps

	// seq is the (1,N) register's publication sequencer when it has one
	// (Caps.Watchable); nil shapes fall back to polling in Watch and
	// Changed. The (M,N) shape parks through mn's composite gate
	// instead.
	seq *notify.Sequencer

	// watchTrack aggregates the backpressure ledgers of this register's
	// live watchers (parked Watch iterators attach on start, detach on
	// exit); Stats exposes the aggregate as the "watchers" child.
	watchTrack notify.Tracker

	// Lazily allocated default writer for Set. Failed allocations are
	// not cached: an (M,N) Set that lost the race for an identity
	// succeeds once one is released.
	setW  atomic.Pointer[TypedWriter[T]]
	setMu sync.Mutex
}

// New constructs a typed register. With no options it is an ARC (1,N)
// register over the JSON codec, N = GOMAXPROCS readers, 4KB values,
// seeded with T's zero value:
//
//	reg, err := arcreg.New[Config]()
//
// Options select the algorithm, the (M,N) multi-writer composition, the
// codec, and the capacity bounds:
//
//	reg, err := arcreg.New[Snapshot](
//		arcreg.WithWriters(4),
//		arcreg.WithReaders(64),
//		arcreg.WithMaxValueSize(32<<10),
//		arcreg.WithInitial(Snapshot{Epoch: 1}),
//	)
func New[T any](opts ...Option) (*Reg[T], error) {
	cfg := config{alg: ARC, writers: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.readers == 0 {
		cfg.readers = defaultReaders(cfg.alg)
	}

	// Resolve the codec.
	cd := JSON[T]()
	if cfg.codec != nil {
		var ok bool
		if cd, ok = cfg.codec.(Codec[T]); !ok {
			return nil, fmt.Errorf("arcreg: WithCodec value is a %T, not a Codec[%T]", cfg.codec, *new(T))
		}
	}

	// Resolve the initial value through the one shared bootstrap.
	initial := cfg.initialRaw
	switch {
	case cfg.hasInitial && initial != nil:
		return nil, errors.New("arcreg: WithInitial and WithInitialBytes are mutually exclusive")
	case cfg.hasInitial:
		v, ok := cfg.initial.(T)
		if !ok {
			return nil, fmt.Errorf("arcreg: WithInitial value is a %T, not a %T", cfg.initial, *new(T))
		}
		blob, err := cd.Encode(v)
		if err != nil {
			return nil, fmt.Errorf("arcreg: encoding initial value: %w", err)
		}
		if blob == nil {
			blob = []byte{} // nil means "unset" to the registers
		}
		initial = blob
	case initial == nil:
		blob, err := codec.ZeroInitial(cd, cfg.maxValueSize)
		if err != nil {
			return nil, err
		}
		initial = blob
	}

	// Shape and algorithm validation.
	if cfg.writers < 1 {
		return nil, fmt.Errorf("arcreg: WithWriters(%d): writer count must be positive", cfg.writers)
	}
	if cfg.writers > 1 && cfg.alg != ARC {
		return nil, fmt.Errorf("arcreg: WithWriters(%d) requires the ARC algorithm (the (M,N) composition is built from ARC components), got %s", cfg.writers, cfg.alg)
	}
	if (cfg.noFreshGate || cfg.noEpochGate) && cfg.writers <= 1 {
		return nil, errors.New("arcreg: WithoutFreshGate/WithoutEpochGate apply to the (M,N) composition; add WithWriters(m > 1)")
	}
	if len(cfg.arcOpts) > 0 && (cfg.alg != ARC || cfg.writers > 1) {
		return nil, errors.New("arcreg: WithARC applies to the (1,N) ARC algorithm only")
	}
	if cfg.shards != 0 || cfg.dynamicValues {
		return nil, errors.New("arcreg: WithShards/WithDynamicValues apply to NewMap, not New")
	}
	if cfg.trace {
		return nil, errors.New("arcreg: WithTrace/WithTraceRings/WithTraceLanes apply to NewMap, not New")
	}

	r := &Reg[T]{c: cd, alg: cfg.alg}
	if cfg.writers > 1 {
		mn, err := NewMN(MNConfig{
			Writers:          cfg.writers,
			Readers:          cfg.readers,
			MaxValueSize:     cfg.maxValueSize,
			Initial:          initial,
			DisableFreshGate: cfg.noFreshGate,
			DisableEpochGate: cfg.noEpochGate,
		})
		if err != nil {
			return nil, err
		}
		r.mn = mn
		r.caps = mn.Caps()
		return r, nil
	}

	rcfg := Config{MaxReaders: cfg.readers, MaxValueSize: cfg.maxValueSize, Initial: initial}
	var (
		reg Register
		err error
	)
	switch cfg.alg {
	case ARC:
		reg, err = NewARC(rcfg, cfg.arcOpts...)
	case RF:
		reg, err = NewRF(rcfg)
	case Peterson:
		reg, err = NewPeterson(rcfg)
	case Lock:
		reg, err = NewLocked(rcfg)
	case Seqlock:
		reg, err = NewSeqlock(rcfg)
	case LeftRight:
		reg, err = NewLeftRight(rcfg)
	default:
		return nil, fmt.Errorf("arcreg: unknown algorithm %s", cfg.alg)
	}
	if err != nil {
		return nil, err
	}
	r.reg = reg
	r.caps = register.CapsOf(reg)
	// Cache the publication sequencer and keep Caps.Watchable honest: a
	// register that reports Watchable but exposes no sequencer is
	// demoted to the poll fallback.
	if sp, ok := reg.(sequencerProvider); ok {
		r.seq = sp.Notifier()
	} else {
		r.caps.Watchable = false
	}
	return r, nil
}

// sequencerProvider is how watchable (1,N) registers expose their
// publication sequencer (internal/arc implements it).
type sequencerProvider interface {
	Notifier() *notify.Sequencer
}

// defaultReaders is the WithReaders default: GOMAXPROCS (one handle per
// goroutine), clamped to the algorithm's architectural reader bound so
// New[T](WithAlgorithm(RF)) does not fail out of the box on machines
// with more than 58 CPUs.
func defaultReaders(alg AlgorithmID) int {
	n := runtime.GOMAXPROCS(0)
	var limit int
	switch alg {
	case RF:
		limit = rf.MaxReaders
	case Peterson:
		limit = peterson.MaxReaders
	case Lock:
		limit = lockreg.MaxReaders
	case Seqlock:
		limit = seqlock.MaxReaders
	case LeftRight:
		limit = leftright.MaxReaders
	default:
		limit = MaxARCReaders
	}
	if n > limit {
		n = limit
	}
	return n
}

// Algorithm reports which construction backs the register.
func (r *Reg[T]) Algorithm() AlgorithmID { return r.alg }

// Caps reports the capability set New resolved at construction —
// zero-copy views, freshness probing, stats, wait-freedom — so callers
// branch on fields instead of type-asserting handles.
func (r *Reg[T]) Caps() Caps { return r.caps }

// Codec reports the encoding in use.
func (r *Reg[T]) Codec() Codec[T] { return r.c }

// Register exposes the underlying (1,N) byte register for raw access,
// or nil for the (M,N) shape.
func (r *Reg[T]) Register() Register { return r.reg }

// MN exposes the underlying (M,N) byte register, or nil for the (1,N)
// shape.
func (r *Reg[T]) MN() *MNRegister { return r.mn }

// Writers reports M (1 for the single-writer shape).
func (r *Reg[T]) Writers() int {
	if r.mn != nil {
		return r.mn.Writers()
	}
	return 1
}

// Readers reports N, the reader-handle capacity.
func (r *Reg[T]) Readers() int {
	if r.mn != nil {
		return r.mn.Readers()
	}
	return r.reg.MaxReaders()
}

// MaxValueSize reports the encoded-value bound in bytes.
func (r *Reg[T]) MaxValueSize() int {
	if r.mn != nil {
		return r.mn.MaxValueSize()
	}
	return r.reg.MaxValueSize()
}

// Set publishes a new value through the register's default writer
// handle (allocated on first use; for the (M,N) shape it occupies one
// of the M identities). Call from one goroutine at a time; concurrent
// writers in the (M,N) shape should hold their own NewWriter handles.
func (r *Reg[T]) Set(v T) error {
	w := r.setW.Load()
	if w == nil {
		r.setMu.Lock()
		if w = r.setW.Load(); w == nil {
			var err error
			if w, err = r.NewWriter(); err != nil {
				r.setMu.Unlock()
				return err
			}
			r.setW.Store(w)
		}
		r.setMu.Unlock()
	}
	return w.Set(v)
}

// NewWriter allocates a typed writer handle. For the (1,N) shape every
// call returns a handle over the register's single writer endpoint —
// the (1,N) contract still allows only one goroutine writing at a time.
// For the (M,N) shape each call claims one of the M writer identities.
func (r *Reg[T]) NewWriter() (*TypedWriter[T], error) {
	if r.mn != nil {
		w, err := r.mn.NewWriter()
		if err != nil {
			return nil, err
		}
		return &TypedWriter[T]{c: r.c, mnw: w}, nil
	}
	w := r.reg.Writer()
	tw := &TypedWriter[T]{c: r.c, w: w}
	if sw, ok := w.(register.StatWriter); ok {
		tw.statw = sw
	} else if sw, ok := r.reg.(register.StatWriter); ok {
		tw.statw = sw
	}
	return tw, nil
}

// NewReader allocates a typed reader handle (one per goroutine, counted
// against the register's Readers capacity).
func (r *Reg[T]) NewReader() (*TypedReader[T], error) {
	if r.mn != nil {
		rd, err := r.mn.NewReader()
		if err != nil {
			return nil, err
		}
		mnr := r.mn.reg
		return &TypedReader[T]{
			c:          r.c,
			mnrd:       rd,
			tracker:    &r.watchTrack,
			watchEpoch: mnr.NotifyEpoch,
			watchGate:  mnr.NotifyGate,
		}, nil
	}
	rd, err := r.reg.NewReader()
	if err != nil {
		return nil, err
	}
	tr := &TypedReader[T]{c: r.c, rd: rd, maxSize: r.reg.MaxValueSize()}
	if v, ok := rd.(Viewer); ok {
		tr.viewer = v // decode straight from the slot, no copy
	} else {
		tr.buf = make([]byte, r.reg.MaxValueSize())
	}
	if p, ok := rd.(FreshnessProber); ok {
		tr.prober = p
	}
	if fv, ok := rd.(register.FreshViewer); ok {
		tr.fviewer = fv
	}
	if sr, ok := rd.(register.StatReader); ok {
		tr.statr = sr
	}
	if seq := r.seq; seq != nil {
		tr.tracker = &r.watchTrack
		tr.watchEpoch = seq.Epoch
		tr.watchGate = seq.Gate
	}
	return tr, nil
}

// Changed returns a channel that is closed when the register publishes
// a value after the call — the select-friendly change signal — or when
// ctx is done (re-check ctx to tell the cases apart). Each call arms a
// fresh one-shot signal that holds a waiting goroutine (and, on
// non-watchable registers, a reader handle) until it fires or ctx is
// cancelled — so re-arm only after the channel fires, keeping at most
// one signal live per subscriber:
//
//	ch := reg.Changed(ctx)
//	for {
//		select {
//		case <-ch:
//			if ctx.Err() != nil { return }
//			v, _ := rd.Get()       // something new (latest value)
//			ch = reg.Changed(ctx)  // re-arm AFTER the signal fired
//		case <-other:
//			...
//		}
//	}
//
// On watchable registers (Caps.Watchable: ARC and the (M,N)
// composition) the signal is event-driven — the waiting goroutine
// parks on the publication sequencer and costs the writer nothing
// while parked. Other algorithms fall back to a polling goroutine with
// its own reader handle; if that handle cannot be allocated (reader
// capacity exhausted) the channel closes immediately, which a caller
// experiences as a spurious change.
func (r *Reg[T]) Changed(ctx context.Context) <-chan struct{} {
	out := make(chan struct{})
	// One-shot waits park directly on the source gate rather than
	// subscribing a tree leaf: a Changed channel lives for a single
	// publication, so the subscribe/close lifecycle would cost more
	// than the one broadcast it avoids. Sustained watchers (Watch /
	// WatchAll iterators) are the ones that ride the wakeup tree.
	switch {
	case r.mn != nil:
		mnr := r.mn.reg
		seen := mnr.NotifyEpoch()
		go func() {
			defer close(out)
			_, _ = mnr.WaitPublish(ctx, seen)
		}()
	case r.seq != nil:
		seen := r.seq.Epoch()
		go func() {
			defer close(out)
			_, _ = r.seq.Wait(ctx, seen)
		}()
	default:
		rd, err := r.NewReader()
		if err != nil {
			// Degrade to a throttled spurious change: the caller
			// re-reads, and the delay keeps a capacity-exhausted caller
			// from hot-spinning on immediately-closed channels.
			go func() {
				defer close(out)
				select {
				case <-ctx.Done():
				case <-time.After(watchPollInterval):
				}
			}()
			return out
		}
		// Establish the baseline synchronously: a Set landing right
		// after Changed returns must flip the first poll, matching the
		// watchable paths' epoch-snapshot-before-return ordering.
		if _, _, err := rd.poll(true); err != nil {
			rd.Close()
			close(out)
			return out
		}
		go func() {
			defer close(out)
			defer rd.Close()
			timer := time.NewTimer(watchPollInterval)
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				if _, changed, err := rd.poll(false); changed || err != nil {
					return
				}
				timer.Reset(watchPollInterval)
			}
		}()
	}
	return out
}

// Get is a convenience for one-shot reads: it allocates a reader
// handle, reads, and closes it. It decodes from a private copy of the
// encoded value, so the result is caller-owned even under an aliasing
// codec (Raw) — there is no live handle left to keep a slot view valid.
// Polling loops should hold a NewReader handle instead: the handle
// carries the per-process protocol state that makes repeated reads hit
// the zero-RMW fast path (and its Get can decode without the copy).
func (r *Reg[T]) Get() (T, error) {
	var zero T
	rd, err := r.NewReader()
	if err != nil {
		return zero, err
	}
	defer rd.Close()
	buf := make([]byte, r.MaxValueSize())
	n, err := rd.ReadBytes(buf)
	if err != nil {
		return zero, err
	}
	return r.c.Decode(buf[:n])
}

// Stats returns the register's observability tree: protocol gauges and
// live-cell counters from the underlying register (slots, live
// readers, publication epoch, waking publishes — DESIGN.md §10 has the
// catalogue) plus a "watchers" child aggregating the backpressure
// ledgers of the live Watch iterators (lag, conflation, wakeup
// latency). Collecting the tree only loads: no RMW instruction on any
// register path, nothing added to the writer's publish cost.
//
// Per-handle read/write counters are not in this tree — they are
// deliberately plain (unsynchronized) so the hot paths stay zero-RMW.
// Collect them at quiescence through TypedReader.ReadStats and
// TypedWriter.WriteStats; their Snapshot converters produce nodes in
// the same shape when a caller wants to graft them in.
func (r *Reg[T]) Stats() Stats {
	var sn Stats
	switch {
	case r.mn != nil:
		sn = r.mn.Stats()
	case r.reg != nil:
		if src, ok := r.reg.(StatsSource); ok {
			sn = src.Stats()
		} else {
			// Algorithms without live cells (RF, Peterson, the lock
			// baselines) still report a root so the watcher aggregate
			// has somewhere to hang.
			sn = Stats{Name: "register"}
		}
	}
	sn.Children = append(sn.Children, r.watchTrack.Stats())
	return sn
}

// TypedWriter is a typed write endpoint: the single (1,N) writer, or
// one of the M identities of the (M,N) composition. One goroutine per
// handle.
type TypedWriter[T any] struct {
	c     Codec[T]
	w     Writer // (1,N)
	statw register.StatWriter
	mnw   MNWriter // (M,N)
}

// Set encodes and publishes a new value. In the (M,N) shape the write
// outbids every tag currently visible.
func (w *TypedWriter[T]) Set(v T) error {
	blob, err := w.c.Encode(v)
	if err != nil {
		return fmt.Errorf("arcreg: encode: %w", err)
	}
	if w.mnw != nil {
		return w.mnw.Write(blob)
	}
	return w.w.Write(blob)
}

// SetBytes publishes an already-encoded value, bypassing the codec.
func (w *TypedWriter[T]) SetBytes(p []byte) error {
	if w.mnw != nil {
		return w.mnw.Write(p)
	}
	return w.w.Write(p)
}

// ID reports the writer identity in [0, M); 0 for the (1,N) shape.
func (w *TypedWriter[T]) ID() int {
	if w.mnw != nil {
		return w.mnw.ID()
	}
	return 0
}

// WriteStats reports the writer's counters, or the zero value when the
// register does not expose them (see Caps.WriteStats).
func (w *TypedWriter[T]) WriteStats() WriteStats {
	if w.mnw != nil {
		return w.mnw.WriteStats()
	}
	if w.statw != nil {
		return w.statw.WriteStats()
	}
	return WriteStats{}
}

// Writer exposes the underlying (1,N) byte endpoint, or nil for (M,N).
func (w *TypedWriter[T]) Writer() Writer { return w.w }

// MNWriter exposes the underlying (M,N) byte endpoint, or nil for
// (1,N).
func (w *TypedWriter[T]) MNWriter() MNWriter { return w.mnw }

// Close releases an (M,N) writer identity for reuse; it is a no-op for
// the (1,N) single writer.
func (w *TypedWriter[T]) Close() error {
	if w.mnw != nil {
		return w.mnw.Close()
	}
	return nil
}

// TypedReader is a per-goroutine typed read endpoint with the full
// capability surface: decoding reads (Get), zero-copy byte views
// (ViewBytes), freshness probing (Fresh), stats (ReadStats) and change
// polling (Values). Capabilities the underlying register lacks degrade
// conservatively (see Caps) instead of requiring type assertions.
type TypedReader[T any] struct {
	c       Codec[T]
	rd      Reader // (1,N)
	viewer  Viewer
	prober  FreshnessProber
	fviewer register.FreshViewer
	statr   register.StatReader
	mnrd    MNReader // (M,N)
	buf     []byte   // copy-read scratch when the register cannot view
	maxSize int

	// Poll state for Values' byte-compare fallback on probe-less
	// registers.
	pollLast []byte
	pollBuf  []byte

	// Parking hooks for Watch (nil on registers without a publication
	// sequencer, which fall back to polling): watchEpoch snapshots the
	// publication epoch and watchGate returns the gate publications
	// wake. A parked Watch calls watchGate when it starts, so only a
	// waiter installs the sequencer's lazy gate. Parked Watch iterators
	// do not park on the gate directly — they subscribe a leaf of its
	// wakeup tree (Gate.Fan) so 100k watchers never share one broadcast
	// cohort. tracker is the owning Reg's
	// watcher population; parked Watch iterators attach their ledger to
	// it for the iteration's lifetime.
	watchEpoch func() uint64
	watchGate  func() *notify.Gate
	tracker    *notify.Tracker
}

// Get returns the freshest value, decoding straight from the register
// slot when the algorithm supports zero-copy views.
func (r *TypedReader[T]) Get() (T, error) {
	var zero T
	if r.mnrd != nil {
		v, err := r.mnrd.View()
		if err != nil {
			return zero, err
		}
		return r.c.Decode(v)
	}
	if r.viewer != nil {
		v, err := r.viewer.View()
		if err != nil {
			return zero, err
		}
		return r.c.Decode(v)
	}
	n, err := r.rd.Read(r.buf)
	if err != nil {
		return zero, err
	}
	return r.c.Decode(r.buf[:n])
}

// ViewBytes returns a zero-copy view of the freshest encoded value, or
// ErrNoView when the algorithm cannot expose one (Caps.ZeroCopyView).
// The view is valid until this handle's next operation and must not be
// modified.
func (r *TypedReader[T]) ViewBytes() ([]byte, error) {
	if r.mnrd != nil {
		return r.mnrd.View()
	}
	if r.viewer != nil {
		return r.viewer.View()
	}
	return nil, ErrNoView
}

// ReadBytes copies the freshest encoded value into dst, bypassing the
// codec (ErrBufferTooSmall with the required length if dst cannot hold
// it).
func (r *TypedReader[T]) ReadBytes(dst []byte) (int, error) {
	if r.mnrd != nil {
		return r.mnrd.Read(dst)
	}
	return r.rd.Read(dst)
}

// Fresh reports whether the handle's last read still returns the
// register's current value — for ARC a single atomic load with no RMW
// instruction. Registers without a freshness probe (Caps.FreshProbe
// false) conservatively report false, so callers re-read. A handle that
// has never read reports false.
func (r *TypedReader[T]) Fresh() bool {
	if r.mnrd != nil {
		return r.mnrd.Fresh()
	}
	if r.prober != nil {
		return r.prober.Fresh()
	}
	return false
}

// ReadStats reports the handle's counters, or the zero value when the
// register does not expose them (see Caps.ReadStats).
func (r *TypedReader[T]) ReadStats() ReadStats {
	if r.mnrd != nil {
		return r.mnrd.ReadStats()
	}
	if r.statr != nil {
		return r.statr.ReadStats()
	}
	return ReadStats{}
}

// Reader exposes the underlying (1,N) byte handle, or nil for (M,N).
func (r *TypedReader[T]) Reader() Reader { return r.rd }

// MNReader exposes the underlying (M,N) byte handle (tags, raw views),
// or nil for (1,N).
func (r *TypedReader[T]) MNReader() MNReader { return r.mnrd }

// Close releases the handle.
func (r *TypedReader[T]) Close() error {
	if r.mnrd != nil {
		return r.mnrd.Close()
	}
	return r.rd.Close()
}

// watchPollInterval paces the poll fallback of Watch and Changed on
// registers without a publication sequencer (Caps.Watchable false).
const watchPollInterval = time.Millisecond

// Watch returns an iterator over the register's publications: it
// yields the value current when iteration starts, then every change it
// observes, parking between changes instead of polling. Delivery is
// at-least-once per publication with latest-value conflation — a burst
// of Sets may be observed as one change carrying the newest value, and
// a consumer that processes slowly never blocks the writer (the writer
// publishes and moves on; the watcher re-reads the freshest value when
// it returns).
//
// On watchable registers (Caps.Watchable: ARC and the (M,N)
// composition) an idle watcher costs nothing and wakes via the
// publication sequencer; the writer's publish path stays RMW- and
// allocation-free while the watcher is busy processing. Algorithms
// without a sequencer degrade to polling every millisecond.
//
// The iterator ends when the consumer breaks, when ctx is done (the
// final yield carries ctx's error), or when a read/decode error is
// yielded:
//
//	for v, err := range rd.Watch(ctx) {
//		if err != nil { break } // ctx.Err() or a read/decode error
//		apply(v)
//	}
//
// Watch owns the handle while it runs: do not touch the TypedReader
// from other goroutines (handles are single-goroutine, like every
// reader in this package).
func (r *TypedReader[T]) Watch(ctx context.Context) iter.Seq2[T, error] {
	return r.watchSeq(ctx, watchPollInterval, true)
}

// Values returns a poll iterator over the register's publications: it
// yields the value current when iteration starts, then every change it
// observes, sleeping `every` between polls (0 yields the scheduler
// instead of sleeping). Between changes a poll costs one freshness
// probe — for ARC one atomic load, no RMW, no decoding; probe-less
// algorithms (Caps.FreshProbe false) fall back to a copy-and-compare
// poll. Like all reads, polling observes the freshest value: rapid
// successive Sets may be observed as one change.
//
// Values is the polling compatibility shim over the Watch engine —
// same yield semantics, fixed-interval pacing instead of parking, no
// context. New code that wants change delivery should use Watch: it
// reacts immediately, costs nothing while idle, and cancels cleanly.
//
// The iterator stops when the loop breaks or a read/decode error is
// yielded:
//
//	for v, err := range rd.Values(time.Millisecond) {
//		if err != nil { ... break or log ... }
//		apply(v)
//	}
//
// Values owns the handle while it runs: do not touch the TypedReader
// from other goroutines (handles are single-goroutine, like every
// reader in this package).
func (r *TypedReader[T]) Values(every time.Duration) iter.Seq2[T, error] {
	return r.watchSeq(context.Background(), every, false)
}

// watchSeq is the one change-delivery engine under Watch and Values:
// read, yield on change, then either park on the publication sequencer
// (park, on watchable registers) or pace by sleeping `every`.
func (r *TypedReader[T]) watchSeq(ctx context.Context, every time.Duration, park bool) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		first := true
		parked := park && r.watchEpoch != nil && r.watchGate != nil
		// The watcher's backpressure ledger, framed by the register's
		// publication epoch. Attached to the Reg's tracker for the
		// iteration's lifetime (lifecycle edges only, never per-event);
		// polling iterators have no epoch frame and record nothing.
		var ws *notify.WatchStats
		// Parked iterators subscribe a leaf of the gate's wakeup tree
		// for the iteration's lifetime: wakeup cohorts stay bounded at
		// watchers/leaves however many Watch sessions are live, and the
		// publisher never pays a close that scales with them. Both are
		// lifecycle edges, like the tracker attach.
		var sub *notify.Sub
		if parked {
			ws = &notify.WatchStats{}
			if r.tracker != nil {
				r.tracker.Attach(ws)
				defer r.tracker.Detach(ws)
			}
			sub = r.watchGate().Fan(notify.DefaultFanArity, notify.DefaultFanDepth).Subscribe()
			defer sub.Close()
		}
		var timer *time.Timer // lazily created, reused across poll rounds
		defer func() {
			if timer != nil {
				timer.Stop()
			}
		}()
		for {
			if err := ctx.Err(); err != nil {
				yield(zero, err)
				return
			}
			// Epoch snapshot strictly before the read: a publication
			// racing the read either lands in it or moves the epoch past
			// the snapshot and makes the wait return immediately —
			// at-least-once, never a lost change.
			var seen uint64
			if parked {
				seen = r.watchEpoch()
				ws.NoteSeen(seen)
			}
			v, changed, err := r.poll(first)
			if err != nil {
				yield(zero, err)
				return
			}
			if changed || first {
				if !yield(v, nil) {
					return
				}
				if parked {
					ws.NoteDelivered(seen)
				}
			} else if parked {
				// The poll proved we are current as of seen: advance the
				// observed frame without counting a delivery.
				ws.NoteObserved(seen)
			}
			first = false
			switch {
			case parked:
				if _, err := notify.WaitEpoch(ctx, r.watchEpoch, seen, ws, sub.Gate()); err != nil {
					yield(zero, err)
					return
				}
			case every > 0:
				if ctx.Done() == nil {
					time.Sleep(every)
				} else {
					if timer == nil {
						timer = time.NewTimer(every)
					} else {
						timer.Reset(every)
					}
					select {
					case <-timer.C:
					case <-ctx.Done():
						// go ≥ 1.23 timer semantics: Stop without
						// draining; Reset is safe regardless.
						timer.Stop()
					}
				}
			default:
				runtime.Gosched()
			}
		}
	}
}

// poll performs one Values step: report whether a new publication is
// visible and decode it if so.
func (r *TypedReader[T]) poll(first bool) (v T, changed bool, err error) {
	var zero T
	switch {
	case r.fviewer != nil:
		// Combined probe-and-fetch (ARC): one call answers both.
		view, viewChanged, err := r.fviewer.ViewFresh()
		if err != nil {
			return zero, false, err
		}
		if !viewChanged && !first {
			return zero, false, nil
		}
		v, err := r.c.Decode(view)
		return v, true, err
	case r.mnrd != nil:
		// Probe, then fetch — but the composite probe is conservative (a
		// publish that loses the tag argmax reports stale), so confirm an
		// actual change by tag before yielding.
		if !first && r.mnrd.Fresh() {
			return zero, false, nil
		}
		prev := r.mnrd.LastTag()
		view, err := r.mnrd.View()
		if err != nil {
			return zero, false, err
		}
		if !first && r.mnrd.LastTag() == prev {
			return zero, false, nil // conservative-stale probe: no decode
		}
		v, err := r.c.Decode(view)
		return v, true, err
	case r.prober != nil:
		// Probe, then fetch only on change (ARC/RF probes are exact).
		if !first && r.prober.Fresh() {
			return zero, false, nil
		}
		v, err := r.Get()
		return v, err == nil, err
	default:
		// Copy-and-compare fallback for probe-less registers. Always a
		// copying Read: a zero-copy view would stay pinned across the
		// inter-poll sleep, and on the lock and Left-Right registers a
		// pinned view blocks the writer.
		if r.pollBuf == nil {
			if r.buf != nil {
				r.pollBuf = r.buf // no-viewer handles already own a scratch
			} else {
				r.pollBuf = make([]byte, r.maxSize)
			}
		}
		n, err := r.rd.Read(r.pollBuf)
		if err != nil {
			return zero, false, err
		}
		cur := r.pollBuf[:n]
		if !first && bytes.Equal(cur, r.pollLast) {
			return zero, false, nil
		}
		r.pollLast = append(r.pollLast[:0], cur...)
		v, err := r.c.Decode(cur)
		return v, true, err
	}
}
