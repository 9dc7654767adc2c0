package arcreg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"arcreg/internal/algs"
	"arcreg/internal/codec"
	"arcreg/internal/mnreg"
	"arcreg/internal/notify"
	"arcreg/internal/register"
)

// AlgorithmID names one of the register constructions New can build.
type AlgorithmID int

// The register constructions, in the order the paper discusses them.
// internal/algs' table lists them in the same order, with each one's
// name, reader bound and constructor.
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
	if a.valid() {
		return algs.Table[a].Name
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

func (a AlgorithmID) valid() bool { return a >= 0 && int(a) < algs.Facade }

// Caps declares what a register's handles do. New resolves it once at
// construction (see Reg.Caps), so application code branches on fields
// instead of type-asserting handles. A true field is a promise; a false
// one says what the method returns instead: View and ViewBytes return
// ErrNoView, Fresh reports false.
type Caps = register.Caps

// ErrNoView is returned by View and TypedReader.ViewBytes when the
// underlying register cannot expose values without copying (Peterson and
// seqlock; see Caps.ZeroCopyView).
var ErrNoView = register.ErrNoView

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
	shards        int    // NewMap only
	dynamicValues bool   // NewMap and the (1,N) ARC register
	trace         bool   // NewMap only
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
// (default GOMAXPROCS, clamped to the algorithm's reader bound so
// WithAlgorithm(RF) works out of the box on machines with more than 58
// CPUs).
func WithReaders(n int) Option {
	return func(c *config) { c.readers = n }
}

// WithMaxValueSize bounds encoded values in bytes (default 4096), and
// sizes each fixed slot buffer. An ARC register allocates a slot's
// buffer on the first write into that slot and fills the slots already
// published first, so it holds as many buffers as the versions its
// readers hold at once, plus two: two for readers that keep up, never
// more than N+2.
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

// WithDynamicValues selects the paper's §3.3 dynamic-buffer variant:
// every Set allocates an exact-size buffer instead of copying into a
// MaxValueSize slot buffer, so memory scales with the values actually
// stored, at the cost of one allocation per write. NewMap
// applies it to every per-key register — the right choice for maps
// holding many keys with small values. New applies it to the (1,N) ARC
// register and rejects it for other algorithms and for WithWriters(m >
// 1).
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
// domain: 1,024 events per ring, and up to 64 concurrently traced watch
// sessions (later sessions run untraced). Valid only for NewMap.
func WithTrace() Option {
	return func(c *config) { c.trace = true }
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
	reg Register // the (1,N) byte register; nil for the (M,N) shape
	alg AlgorithmID

	caps                           Caps
	writers, readers, maxValueSize int

	// The shape's byte-level handle constructors and Stats source,
	// resolved once by New.
	newWriter func() (Writer, error)
	newReader func() (Reader, error)
	stats     func() Stats

	// epoch snapshots the publication epoch and gate returns the gate
	// publications wake: the (1,N) register's sequencer or the (M,N)
	// composite's. Watch and Changed park on them.
	epoch func() uint64
	gate  func() *notify.Gate

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
	if !cfg.alg.valid() {
		return nil, fmt.Errorf("arcreg: unknown algorithm %s", cfg.alg)
	}
	alg := algs.Table[cfg.alg]
	if cfg.readers == 0 {
		cfg.readers = min(runtime.GOMAXPROCS(0), alg.MaxReaders)
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
	if cfg.dynamicValues && (cfg.alg != ARC || cfg.writers > 1) {
		return nil, errors.New("arcreg: WithDynamicValues applies to NewMap and to the (1,N) ARC register only")
	}
	if cfg.shards != 0 {
		return nil, errors.New("arcreg: WithShards applies to NewMap, not New")
	}
	if cfg.trace {
		return nil, errors.New("arcreg: WithTrace applies to NewMap, not New")
	}

	r := &Reg[T]{c: cd, alg: cfg.alg, writers: cfg.writers}
	if cfg.writers > 1 {
		mn, err := mnreg.New(mnreg.Config{
			Writers:      cfg.writers,
			Readers:      cfg.readers,
			MaxValueSize: cfg.maxValueSize,
			Initial:      initial,
		}, mnreg.Options{})
		if err != nil {
			return nil, err
		}
		r.caps = mn.Caps()
		r.readers, r.maxValueSize = mn.Readers(), mn.MaxValueSize()
		// Wrapped so that a failed allocation returns a nil interface,
		// never one holding a nil pointer.
		r.newWriter = func() (Writer, error) {
			w, err := mn.NewWriter()
			if err != nil {
				return nil, err
			}
			return w, nil
		}
		r.newReader = func() (Reader, error) {
			rd, err := mn.NewReader()
			if err != nil {
				return nil, err
			}
			return rd, nil
		}
		r.stats = mn.Stats
		r.epoch, r.gate = mn.NotifyEpoch, mn.NotifyGate
		return r, nil
	}

	reg, err := alg.New(register.Config{MaxReaders: cfg.readers, MaxValueSize: cfg.maxValueSize, Initial: initial}, cfg.dynamicValues)
	if err != nil {
		return nil, err
	}
	r.reg = reg
	r.caps = reg.Caps()
	r.readers, r.maxValueSize = reg.MaxReaders(), reg.MaxValueSize()
	// Every (1,N) register's Writer is the register itself: one
	// endpoint, one goroutine writing at a time.
	r.newWriter = func() (Writer, error) { return reg.Writer(), nil }
	r.newReader = reg.NewReader
	seq := reg.Notifier()
	r.epoch, r.gate = seq.Epoch, seq.Gate
	if src, ok := reg.(StatsSource); ok {
		r.stats = src.Stats
	} else {
		// The baselines keep no live cells of their own: their root is
		// the sequencer's node.
		r.stats = func() Stats { return Stats{Name: "register", Children: []Stats{seq.Stats()}} }
	}
	return r, nil
}

// Algorithm reports which construction backs the register.
func (r *Reg[T]) Algorithm() AlgorithmID { return r.alg }

// Caps reports the capability set New resolved at construction —
// zero-copy views, freshness probing, wait-freedom — so callers branch
// on fields instead of type-asserting handles.
func (r *Reg[T]) Caps() Caps { return r.caps }

// Codec reports the encoding in use.
func (r *Reg[T]) Codec() Codec[T] { return r.c }

// Register exposes the underlying (1,N) byte register for raw access,
// or nil for the (M,N) shape.
func (r *Reg[T]) Register() Register { return r.reg }

// Writers reports M (1 for the single-writer shape).
func (r *Reg[T]) Writers() int { return r.writers }

// Readers reports N, the reader-handle capacity.
func (r *Reg[T]) Readers() int { return r.readers }

// MaxValueSize reports the encoded-value bound in bytes.
func (r *Reg[T]) MaxValueSize() int { return r.maxValueSize }

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
	w, err := r.newWriter()
	if err != nil {
		return nil, err
	}
	return &TypedWriter[T]{c: r.c, w: w}, nil
}

// NewReader allocates a typed reader handle (one per goroutine, counted
// against the register's Readers capacity).
func (r *Reg[T]) NewReader() (*TypedReader[T], error) {
	rd, err := r.newReader()
	if err != nil {
		return nil, err
	}
	tr := &TypedReader[T]{reg: r, rd: rd}
	// Get decodes straight from the slot only where a live view cannot
	// hold the writer back: on the lock and Left-Right registers a view
	// pins the read lock or reader indicator until the handle's next
	// operation, so a reader that Gets once and idles would wedge every
	// later Set. Those copy through Read, which releases before returning.
	if !r.caps.ZeroCopyView || !r.caps.WaitFreeWrite {
		tr.buf = make([]byte, r.maxValueSize)
	}
	return tr, nil
}

// Changed returns a channel that is closed when the register publishes
// a value after the call — the select-friendly change signal — or when
// ctx is done (re-check ctx to tell the cases apart). Each call arms a
// fresh one-shot signal that holds a waiting goroutine until it fires
// or ctx is cancelled — so re-arm only after the channel fires, keeping
// at most one signal live per subscriber:
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
// The signal is event-driven on every algorithm: the waiting goroutine
// parks on the publication sequencer, takes no reader handle, and costs
// the writer nothing while parked. The epoch is snapshotted before
// Changed returns, so a Set made right after the call fires it.
func (r *Reg[T]) Changed(ctx context.Context) <-chan struct{} {
	out := make(chan struct{})
	// One-shot waits park directly on the source gate rather than
	// subscribing a tree leaf: a Changed channel lives for a single
	// publication, so the subscribe/close lifecycle would cost more
	// than the one broadcast it avoids. Sustained watchers (Watch /
	// WatchAll iterators) are the ones that ride the wakeup tree.
	seen := r.epoch()
	go func() {
		defer close(out)
		_, _ = notify.WaitEpoch(ctx, r.epoch, seen, nil, r.gate())
	}()
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
	sn := r.stats()
	sn.Children = append(sn.Children, r.watchTrack.Stats())
	return sn
}

// TypedWriter is a typed write endpoint: the single (1,N) writer, or
// one of the M identities of the (M,N) composition. One goroutine per
// handle.
type TypedWriter[T any] struct {
	c Codec[T]
	w Writer
}

// Set encodes and publishes a new value. In the (M,N) shape the write
// outbids every tag currently visible.
func (w *TypedWriter[T]) Set(v T) error {
	blob, err := w.c.Encode(v)
	if err != nil {
		return fmt.Errorf("arcreg: encode: %w", err)
	}
	return w.w.Write(blob)
}

// SetBytes publishes an already-encoded value, bypassing the codec.
func (w *TypedWriter[T]) SetBytes(p []byte) error { return w.w.Write(p) }

// ID reports the writer identity in [0, M); 0 for the (1,N) shape.
func (w *TypedWriter[T]) ID() int {
	if id, ok := w.w.(interface{ ID() int }); ok {
		return id.ID()
	}
	return 0
}

// WriteStats reports the writer's counters. Collect at quiescence.
func (w *TypedWriter[T]) WriteStats() WriteStats { return w.w.WriteStats() }

// Writer exposes the underlying byte endpoint: the (1,N) register's
// single writer, or this handle's (M,N) writer identity.
func (w *TypedWriter[T]) Writer() Writer { return w.w }

// Close releases an (M,N) writer identity for reuse; it is a no-op for
// the (1,N) single writer.
func (w *TypedWriter[T]) Close() error {
	if c, ok := w.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// TypedReader is a per-goroutine typed read endpoint with the full
// capability surface: decoding reads (Get), zero-copy byte views
// (ViewBytes), freshness probing (Fresh), stats (ReadStats) and change
// delivery (Watch). Capabilities the underlying register lacks degrade
// as its Caps say, with no type assertion on the caller's side.
type TypedReader[T any] struct {
	// reg is the owning register: its codec decodes, Watch parks on its
	// sequencer and attaches its ledger to reg's watcher population.
	reg *Reg[T]
	rd  Reader
	// buf is Get's copy-read scratch, allocated where Get must not
	// decode from a view (see NewReader); nil means Get views.
	buf []byte
}

// Get returns the freshest value, decoding straight from the register
// slot when the algorithm supports zero-copy views and the writer is
// wait-free (Caps.WaitFreeWrite); otherwise it decodes a copy.
func (r *TypedReader[T]) Get() (T, error) {
	var zero T
	if r.buf == nil {
		v, err := r.rd.View()
		if err != nil {
			return zero, err
		}
		return r.reg.c.Decode(v)
	}
	n, err := r.rd.Read(r.buf)
	if err != nil {
		return zero, err
	}
	return r.reg.c.Decode(r.buf[:n])
}

// ViewBytes returns a zero-copy view of the freshest encoded value, or
// ErrNoView when the algorithm cannot expose one (Caps.ZeroCopyView).
// The view is valid until this handle's next operation and must not be
// modified. On registers whose writer is not wait-free (Lock,
// LeftRight) a live view holds the writer back until then.
func (r *TypedReader[T]) ViewBytes() ([]byte, error) { return r.rd.View() }

// ReadBytes copies the freshest encoded value into dst, bypassing the
// codec (ErrBufferTooSmall with the required length if dst cannot hold
// it).
func (r *TypedReader[T]) ReadBytes(dst []byte) (int, error) { return r.rd.Read(dst) }

// Fresh reports whether the handle's last read still returns the
// register's current value — for ARC a single atomic load with no RMW
// instruction. Registers without a freshness probe (Caps.FreshProbe
// false) report false, so callers re-read. A handle that has never read
// reports false.
func (r *TypedReader[T]) Fresh() bool { return r.rd.Fresh() }

// ReadStats reports the handle's counters. Collect at quiescence.
func (r *TypedReader[T]) ReadStats() ReadStats { return r.rd.ReadStats() }

// Reader exposes the underlying byte handle. An (M,N) handle also
// reports the tag of the value it last returned:
//
//	tag := rd.Reader().(interface{ LastTag() arcreg.MNTag }).LastTag()
func (r *TypedReader[T]) Reader() Reader { return r.rd }

// Close releases the handle.
func (r *TypedReader[T]) Close() error { return r.rd.Close() }

// Watch returns an iterator over the register's publications: it
// yields the value current when iteration starts, then every change it
// observes, parking between changes instead of polling. Delivery is
// at-least-once per publication with latest-value conflation — a burst
// of Sets may be observed as one change carrying the newest value, and
// a consumer that processes slowly never blocks the writer (the writer
// publishes and moves on; the watcher re-reads the freshest value when
// it returns).
//
// Every algorithm carries a publication sequencer: an idle watcher
// costs nothing and wakes when the writer publishes, and the writer's
// publish path stays RMW- and allocation-free while the watcher is busy
// processing. A consumer that wants to pace itself sleeps in the loop
// body; the next step yields the freshest value.
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
	return func(yield func(T, error) bool) {
		var zero T
		// The watcher's backpressure ledger, framed by the register's
		// publication epoch and attached to the Reg's tracker for the
		// iteration's lifetime (lifecycle edges only, never per-event).
		ws := &notify.WatchStats{}
		r.reg.watchTrack.Attach(ws)
		defer r.reg.watchTrack.Detach(ws)
		// Subscribe a leaf of the gate's wakeup tree for the iteration's
		// lifetime: wakeup cohorts stay bounded at watchers/leaves however
		// many Watch sessions are live, and the publisher never pays a
		// close that scales with them. Starting a Watch is what installs
		// the sequencer's lazy gate.
		sub := r.reg.gate().Fan(notify.DefaultFanArity, notify.DefaultFanDepth).Subscribe()
		defer sub.Close()
		// The session's change test: the combined probe-and-fetch where
		// the handle has one (ARC, (M,N)), else what poll falls back to.
		fv, _ := r.rd.(register.FreshViewer)
		var last []byte
		for first := true; ; first = false {
			if err := ctx.Err(); err != nil {
				yield(zero, err)
				return
			}
			// Epoch snapshot strictly before the read: a publication
			// racing the read either lands in it or moves the epoch past
			// the snapshot and makes the wait return immediately —
			// at-least-once, never a lost change.
			seen := r.reg.epoch()
			ws.NoteSeen(seen)
			v, changed, err := r.poll(first, fv, &last)
			if err != nil {
				yield(zero, err)
				return
			}
			if changed {
				if !yield(v, nil) {
					return
				}
				ws.NoteDelivered(seen)
			} else {
				// The poll proved we are current as of seen: advance the
				// observed frame without counting a delivery.
				ws.NoteObserved(seen)
			}
			if _, err := notify.WaitEpoch(ctx, r.reg.epoch, seen, ws, sub.Gate()); err != nil {
				yield(zero, err)
				return
			}
		}
	}
}

// poll performs one Watch step: report whether a publication other
// than the last one yielded is visible, and decode it if so. The first
// step always reports a change. fv is the handle's probe-and-fetch, nil
// where it has none; last holds the value the previous step yielded on
// registers that compare copies.
func (r *TypedReader[T]) poll(first bool, fv register.FreshViewer, last *[]byte) (v T, changed bool, err error) {
	var zero T
	switch {
	case fv != nil:
		// Combined probe-and-fetch (ARC, (M,N)): one call answers both.
		view, viewChanged, err := fv.ViewFresh()
		if err != nil {
			return zero, false, err
		}
		if !viewChanged && !first {
			return zero, false, nil
		}
		v, err := r.reg.c.Decode(view)
		return v, true, err
	case r.reg.caps.FreshProbe:
		// Probe, then fetch only on change (RF's probe is exact).
		if !first && r.rd.Fresh() {
			return zero, false, nil
		}
		v, err := r.Get()
		return v, err == nil, err
	default:
		// Copy-and-compare for probe-less registers (Peterson, seqlock,
		// lock, Left-Right), into the buf NewReader gave each of them
		// (none both views and has a wait-free writer). Always a copying
		// Read: a zero-copy view would stay pinned while the watcher
		// parks, and on the lock and Left-Right registers a pinned view
		// blocks the writer.
		n, err := r.rd.Read(r.buf)
		if err != nil {
			return zero, false, err
		}
		cur := r.buf[:n]
		if !first && bytes.Equal(cur, *last) {
			return zero, false, nil
		}
		*last = append((*last)[:0], cur...)
		v, err := r.reg.c.Decode(cur)
		return v, true, err
	}
}
