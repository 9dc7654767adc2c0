// Package mnreg constructs a multi-writer multi-reader (M,N) atomic
// register from M ARC (1,N) registers — the classical composition the ARC
// paper cites as the reason optimized (1,N) registers matter ("they
// constitute building blocks to realize more general (M,N) registers",
// §1, citing Li/Tromp/Vitányi).
//
// # Construction
//
// Each of the M writers owns one ARC register. Values are published with a
// tag — a (sequence, writerID) pair ordered lexicographically. To write,
// a writer collects the maximum tag currently visible across the other
// M−1 component registers (its own component's tag is its own last
// publish, tracked locally), increments the sequence, and publishes
// tag+value into its own register (one wait-free ARC write). To read, a
// reader collects all M components and returns the value carrying the
// maximum tag.
//
// Because every component register is atomic and component tags are
// monotone (each writer's sequences increase), the maximum tag visible to
// a scan can never regress between non-overlapping operations, which
// yields atomicity of the composite without the reader write-back that
// constructions over weaker (1,1) or regular bases require. A write that
// completed before a scan started placed its tag in a component; the
// component's no-past property forces the scan to see at least that tag.
// Conversely every tag a scan returns was published by a write that had
// started, giving regularity; and two sequential scans relate through each
// component's no-new-old-inversion property.
//
// # The freshness-gated collect
//
// A naive collect performs a full ARC read of every component on every
// scan — M interface calls, M tag decodes, and, whenever a component
// changed, 2 RMW instructions per change. That throws away the ARC
// paper's headline property: a reader whose held slot is still freshest
// pays zero RMW (the R1–R2 fast path). This package keeps the property at
// the composite level. Every scan handle caches, per component, the last
// decoded (tag, view) pair; a collect first probes each component with
// arc.Reader.Fresh — a single atomic load, no RMW — and re-reads
// (arc.Reader.ViewFresh) and re-decodes only the components that actually
// changed. A running argmax over the cached tags makes the all-fresh
// collect return the cached best without looping over tags again. The
// cached views stay pinned by the protocol itself: a held ARC slot is
// never recycled while the handle's presence unit is outstanding, so a
// component that reports Fresh still exposes exactly the cached bytes.
//
// Steady-state cost per composite read (no component changed since the
// last read): M atomic loads, zero RMW instructions, zero tag decoding —
// versus M full ARC reads for the ungated collect. Options.DisableFreshGate
// restores the ungated collect for ablation benchmarks.
//
// # The adaptive epoch gate
//
// On top of the per-component probes, the register keeps a shared pair of
// publish counters — pubStarted, bumped by every writer immediately
// before its component publish, and pubDone, bumped immediately after —
// so a reader can gate an entire all-fresh scan behind ONE atomic load
// instead of M probes. The subtlety is that a bare "counter unchanged ⟹
// nothing changed" check is unsound: the counter and the component
// publish are separate atomic words, so a scan could observe a publish
// whose counter increment is still in flight (or vice versa), and a later
// counter-gated scan would then serve older state than an earlier scan
// returned — a new/old inversion that breaks composite atomicity.
//
// The gate therefore only trusts an epoch recorded by a validated probe
// pass: load started (S) and done (D) before the per-component probes,
// run the probes, and re-load started after. Only when S == D (no publish
// was in flight when the pass began) and started is still S afterwards
// (no publish began during the pass) is the pass a consistent snapshot
// at epoch S; the scan records lastStarted = S. A later collect that
// loads pubStarted == lastStarted knows no publish started since that
// snapshot — and none can be in flight, because in-flight publishes bump
// started first — so the cached (tag, view) table is exactly current and
// is served with zero further loads. Any other outcome simply falls back
// to the per-component probes, which are exact; the epoch word is an
// accelerator, never a correctness mechanism. Validation failure
// invalidates the recorded epoch, keeping every path loop-free and
// wait-free.
//
// Writers do not use the epoch gate for their own tag collects (their
// own publishes invalidate it every write); they pay the probe loop,
// which their skipped own component makes M−1 loads. The two counter
// bumps add 2 RMW instructions per composite write, reported in
// WriteStats.RMW. Options.DisableEpochGate keeps the per-component
// probes only, for ablation and equivalence testing.
//
// Per-component tag monotonicity is what makes the cache sound: a
// component is only ever written by the writer that owns it, with strictly
// increasing sequence numbers (writer identities are recycled only after
// Close, and a new holder seeds its sequence from the component's current
// tag), so a cached tag can never exceed the component's current tag and
// the incremental argmax can never regress.
//
// All operations are wait-free with O(M) time and at most M·(N+M+2)
// buffers total — inherited directly from ARC's N+2 bound per component,
// whose buffers follow its published prefix: allocated as it grows and
// released as it shrinks.
package mnreg

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"arcreg/internal/arc"
	"arcreg/internal/notify"
	"arcreg/internal/obs"
	"arcreg/internal/pad"
	"arcreg/internal/register"
)

// tagSize is the per-value header: 8-byte sequence + 4-byte writer id +
// 4 bytes reserved/padding.
const tagSize = 16

// Tag orders writes: lexicographic on (Seq, Writer).
type Tag struct {
	Seq    uint64
	Writer uint32
}

// Less reports whether t orders before u.
func (t Tag) Less(u Tag) bool {
	if t.Seq != u.Seq {
		return t.Seq < u.Seq
	}
	return t.Writer < u.Writer
}

// String implements fmt.Stringer.
func (t Tag) String() string { return fmt.Sprintf("(%d,w%d)", t.Seq, t.Writer) }

func putTag(dst []byte, t Tag) {
	binary.LittleEndian.PutUint64(dst[0:8], t.Seq)
	binary.LittleEndian.PutUint32(dst[8:12], t.Writer)
	binary.LittleEndian.PutUint32(dst[12:16], 0)
}

func getTag(p []byte) Tag {
	return Tag{
		Seq:    binary.LittleEndian.Uint64(p[0:8]),
		Writer: binary.LittleEndian.Uint32(p[8:12]),
	}
}

// Config parametrizes the (M,N) register.
type Config struct {
	// Writers is M, the number of concurrent writer handles.
	Writers int
	// Readers is N, the number of concurrent reader handles.
	Readers int
	// MaxValueSize bounds user values in bytes.
	MaxValueSize int
	// Initial is the register's initial value (optional).
	Initial []byte
}

// Options tune the composite register. The zero value is the optimized
// algorithm with the freshness-gated collect and the adaptive epoch gate
// enabled.
type Options struct {
	// DisableFreshGate forces every collect to perform a full ARC read
	// and tag decode of every component — the ungated O(M·View) scan.
	// It implies DisableEpochGate. Used by the ablation benchmarks to
	// quantify the gate's effect; applications should leave it false.
	DisableFreshGate bool
	// DisableEpochGate keeps the per-component freshness probes but
	// turns off the shared publish-epoch short-circuit (the one-load
	// all-fresh scan). Used by the equivalence tests and ablations.
	DisableEpochGate bool
}

// Register is a wait-free multi-word atomic (M,N) register.
type Register struct {
	// pubStarted and pubDone are the adaptive epoch gate's shared
	// publish counters: every writer bumps pubStarted immediately before
	// and pubDone immediately after its component publish. started ==
	// done ⟺ no publish is in flight. Padded: they are RMW targets of
	// all M writers.
	pubStarted pad.PaddedUint64
	pubDone    pad.PaddedUint64

	comps        []*arc.Register // component (1,N+M) ARC registers
	writers      int
	readers      int
	maxValueSize int
	opts         Options

	// watchGate is the composite parking point: every component
	// sequencer is chained to it, so any writer's publish wakes
	// watchers parked here. The composite epoch is not a separate word
	// — it is the sum of the M component epochs (NotifyEpoch), read
	// with M atomic loads, exactly the package's probe discipline. The
	// chain costs each component publish one extra atomic load (the
	// parent-gate nil check), never an RMW.
	watchGate notify.Gate

	mu          sync.Mutex
	writerIDs   []uint32 // free writer identities
	liveReaders int
}

// New constructs the composite register. Use Options{} for the default
// (fresh-gated) collect.
func New(cfg Config, opts Options) (*Register, error) {
	if cfg.Writers <= 0 {
		return nil, fmt.Errorf("mnreg: Writers must be positive, got %d", cfg.Writers)
	}
	if cfg.Readers <= 0 {
		return nil, fmt.Errorf("mnreg: Readers must be positive, got %d", cfg.Readers)
	}
	if cfg.MaxValueSize == 0 {
		cfg.MaxValueSize = register.DefaultMaxValueSize
	}
	if cfg.MaxValueSize < 0 {
		return nil, fmt.Errorf("mnreg: MaxValueSize must be positive, got %d", cfg.MaxValueSize)
	}
	if len(cfg.Initial) > cfg.MaxValueSize {
		return nil, fmt.Errorf("mnreg: initial value (%d bytes) exceeds MaxValueSize (%d)",
			len(cfg.Initial), cfg.MaxValueSize)
	}
	r := &Register{
		comps:        make([]*arc.Register, cfg.Writers),
		writers:      cfg.Writers,
		readers:      cfg.Readers,
		maxValueSize: cfg.MaxValueSize,
		opts:         opts,
	}
	// Every component is read by all N readers and by all M writers
	// (the tag collect), so its reader capacity is N+M.
	initial := make([]byte, tagSize+len(cfg.Initial))
	copy(initial[tagSize:], cfg.Initial) // tag (0,0): the genesis write
	for i := range r.comps {
		comp, err := arc.New(register.Config{
			MaxReaders:   cfg.Readers + cfg.Writers,
			MaxValueSize: tagSize + cfg.MaxValueSize,
			Initial:      initial,
		}, arc.Options{})
		if err != nil {
			return nil, fmt.Errorf("mnreg: component %d: %w", i, err)
		}
		comp.Notifier().Chain(&r.watchGate)
		r.comps[i] = comp
	}
	for id := cfg.Writers - 1; id >= 0; id-- {
		r.writerIDs = append(r.writerIDs, uint32(id))
	}
	return r, nil
}

// Caps reports the composite's capabilities: the freshness probe, the
// combined probe-and-fetch and zero-copy views survive the (M,N)
// composition, and every operation stays wait-free (O(M) component
// operations each).
func (r *Register) Caps() register.Caps {
	return register.Caps{
		ZeroCopyView:  true,
		FreshProbe:    true,
		FreshView:     true,
		WaitFreeRead:  true,
		WaitFreeWrite: true,
	}
}

// NotifyEpoch returns the composite publication epoch: the sum of the M
// component sequencer epochs (M atomic loads, no RMW). The sum is
// monotone — components only advance — so two equal values bracket a
// publication-free interval, and any publish in between is visible as a
// difference. A torn read across the M loads can only under-count (each
// load returns a value at most the component's current epoch), which the
// armed-gate recheck in WaitPublish turns into a wakeup, never a loss.
func (r *Register) NotifyEpoch() uint64 {
	var sum uint64
	for _, comp := range r.comps {
		sum += comp.Notifier().Epoch()
	}
	return sum
}

// NotifyGate returns the composite parking gate (every component
// publish wakes it), for callers composing their own waits.
func (r *Register) NotifyGate() *notify.Gate { return &r.watchGate }

// WaitPublish blocks until NotifyEpoch differs from seen or ctx is
// done, returning the epoch observed. Snapshot NotifyEpoch before
// reading and wait on that snapshot for at-least-once change delivery
// with latest-value conflation (same contract as notify.Sequencer.Wait).
func (r *Register) WaitPublish(ctx context.Context, seen uint64) (uint64, error) {
	return r.WaitPublishStats(ctx, seen, nil)
}

// WaitPublishStats is WaitPublish with per-watcher telemetry: park/wake
// accounting goes through notify.AwaitStats and the epoch observed at
// return is noted as published on ws (in the composite summed-epoch
// frame). ws may be nil.
func (r *Register) WaitPublishStats(ctx context.Context, seen uint64, ws *notify.WatchStats) (uint64, error) {
	return notify.WaitEpoch(ctx, r.NotifyEpoch, seen, ws, &r.watchGate)
}

// Stats returns the composite's live telemetry as a Stats-tree node:
// the summed publication epoch, the publish-window counters, capacity
// gauges, and one child per component register. Safe from any
// goroutine at any time (tier-1 words only; per-handle scan counters
// stay quiescent-collection, see ReadStats).
func (r *Register) Stats() obs.Snapshot {
	sn := obs.Snapshot{Name: "mnreg"}
	sn.Put("epoch", r.NotifyEpoch())
	sn.Put("pub_started", r.pubStarted.Load())
	sn.Put("pub_done", r.pubDone.Load())
	sn.Put("writers", uint64(r.writers))
	sn.Put("readers", uint64(r.readers))
	sn.Put("live_readers", uint64(r.LiveReaders()))
	armed := uint64(0)
	if r.watchGate.Armed() {
		armed = 1
	}
	sn.Put("gate_armed", armed)
	if t := r.watchGate.Fanned(); t != nil {
		// The composite gate's wakeup tree (attached by the first
		// facade watch session): topology, live relays, cascades.
		sn.Children = append(sn.Children, t.Stats())
	}
	for i, comp := range r.comps {
		child := comp.Stats()
		child.Name = fmt.Sprintf("component%d", i)
		sn.Children = append(sn.Children, child)
	}
	return sn
}

// Writers reports M.
func (r *Register) Writers() int { return r.writers }

// Readers reports N.
func (r *Register) Readers() int { return r.readers }

// MaxValueSize reports the user-value bound.
func (r *Register) MaxValueSize() int { return r.maxValueSize }

// LiveReaders reports the number of open composite reader handles.
func (r *Register) LiveReaders() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveReaders
}

// noBest marks a scan that has not cached any component yet.
const noBest = -1

// scan holds the per-handle collect state: one ARC reader handle per
// collected component plus the freshness cache — the last decoded tag and
// view per component, a running argmax over the cached tags, and the
// epoch-gate snapshot state.
type scan struct {
	reg     *Register
	handles []*arc.Reader // nil at the writer's own (skipped) component
	tags    []Tag         // cached decoded tag per component
	views   [][]byte      // cached full view (tag header included)
	primed  []bool        // component has a valid (tag, view) cache entry
	nprimed int           // primed entries (all collected primed ⇒ cache complete)
	ncomps  int           // collected (non-skipped) components
	best    int           // index of the max cached tag, or noBest
	gate    bool          // freshness gate enabled (false = ablation)
	buf     []byte        // write staging (writers only)

	// Epoch-gate state: lastStarted is the pubStarted value of the last
	// validated probe pass (see the package doc); epochValid marks it
	// trustworthy. Readers only — writers invalidate it every write.
	epochGate   bool
	epochValid  bool
	lastStarted uint64

	// Collect accounting, surfaced through ReadStats/WriteStats.
	ops       uint64 // collects completed
	fastScans uint64 // collects where every component was fresh
	epochFast uint64 // fast scans served by the one-load epoch gate
}

// newScan builds the collect state. skip names a component to exclude
// (the writer's own; pass -1 to collect all).
func (r *Register) newScan(skip int, withStaging bool) (*scan, error) {
	m := len(r.comps)
	s := &scan{
		reg:     r,
		handles: make([]*arc.Reader, m),
		tags:    make([]Tag, m),
		views:   make([][]byte, m),
		primed:  make([]bool, m),
		best:    noBest,
		gate:    !r.opts.DisableFreshGate,
		// The epoch gate pays off only when the scan covers every
		// component (a writer's own publishes would invalidate it on
		// every write anyway).
		epochGate: skip < 0 && !r.opts.DisableFreshGate && !r.opts.DisableEpochGate,
	}
	for i, comp := range r.comps {
		if i == skip {
			continue
		}
		h, err := comp.NewReaderHandle()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("mnreg: component %d handle: %w", i, err)
		}
		s.handles[i] = h
		s.ncomps++
	}
	if withStaging {
		s.buf = make([]byte, tagSize+r.maxValueSize)
	}
	return s, nil
}

// collect returns the maximum tag visible across the collected components
// and the view carrying it. Fresh components (held slot still the
// component's current publication) are served from the cache: one atomic
// load, no RMW, no tag decode. An all-fresh scan whose previous probe
// pass validated a quiescent epoch is served by one load of pubStarted
// alone. The returned view stays pinned until the underlying handle's
// next re-read — which, by per-component tag monotonicity, can only
// happen after the component published something newer.
func (s *scan) collect() (Tag, []byte, error) {
	if s.epochGate && s.epochValid && s.reg.pubStarted.Load() == s.lastStarted {
		// One load: no publish started since the validated snapshot and
		// none can be in flight (in-flight publishes bump pubStarted
		// first), so the whole cache is exactly current.
		s.ops++
		s.fastScans++
		s.epochFast++
		return s.tags[s.best], s.views[s.best], nil
	}
	var started, done uint64
	if s.epochGate {
		started = s.reg.pubStarted.Load()
		done = s.reg.pubDone.Load()
	}
	changed, err := s.probe()
	if err != nil {
		return Tag{}, nil, err
	}
	if s.epochGate {
		// The pass is a consistent snapshot at epoch `started` only if
		// no publish was in flight when it began and none began during
		// it; otherwise the epoch word proves nothing and the next
		// collect falls back to the (exact) per-component probes.
		if started == done && s.nprimed == s.ncomps && s.reg.pubStarted.Load() == started {
			s.lastStarted = started
			s.epochValid = true
		} else {
			s.epochValid = false
		}
	}
	s.ops++
	if !changed {
		s.fastScans++
	}
	if s.best == noBest {
		// Only reachable for a writer with M == 1: nothing to collect.
		return Tag{}, nil, nil
	}
	return s.tags[s.best], s.views[s.best], nil
}

// probe runs the per-component freshness-gated pass: each collected
// component is either confirmed fresh (one atomic load) or re-read and
// re-decoded into the cache. Reports whether anything changed.
func (s *scan) probe() (changed bool, err error) {
	for i, h := range s.handles {
		if h == nil {
			continue // the writer's own component
		}
		if s.gate && s.primed[i] && h.Fresh() {
			continue // one load: cached (tag, view) still current
		}
		// Re-read and re-decode. The change report is necessarily true
		// here — a failed Fresh probe cannot flip back (a held slot is
		// never republished) and a first read always changes — so only
		// the view is consumed.
		v, _, err := h.ViewFresh()
		if err != nil {
			return changed, err
		}
		if len(v) < tagSize {
			return changed, fmt.Errorf("mnreg: component value shorter than tag header (%d bytes)", len(v))
		}
		t := getTag(v)
		s.tags[i] = t
		s.views[i] = v
		if !s.primed[i] {
			s.primed[i] = true
			s.nprimed++
		}
		changed = true
		// Running argmax. Component tags are monotone, so a component
		// that was the best and changed is still at least its old tag.
		if s.best == noBest || s.best == i || s.tags[s.best].Less(t) {
			s.best = i
		}
	}
	return changed, nil
}

// rmw sums the RMW instructions the scan's component handles executed.
func (s *scan) rmw() (rmw uint64) {
	for _, h := range s.handles {
		if h != nil {
			rmw += h.ReadStats().RMW
		}
	}
	return rmw
}

func (s *scan) close() {
	for _, h := range s.handles {
		if h != nil {
			h.Close()
		}
	}
}

// Writer is one of the M write endpoints. One goroutine per Writer.
type Writer struct {
	reg     *Register
	id      uint32
	scan    *scan
	seq     uint64 // highest sequence this writer has used or observed
	gateRMW uint64 // pubStarted/pubDone bumps executed (2 per write)
	closed  bool
	// base snapshots the own component's register-lifetime write
	// counters at handle creation, so WriteStats reports only this
	// handle's work even when the identity was recycled.
	base register.WriteStats
}

// NewWriter allocates one of the M writer identities.
func (r *Register) NewWriter() (*Writer, error) {
	r.mu.Lock()
	if len(r.writerIDs) == 0 {
		r.mu.Unlock()
		return nil, fmt.Errorf("mnreg: all %d writer identities in use", r.writers)
	}
	id := r.writerIDs[len(r.writerIDs)-1]
	r.writerIDs = r.writerIDs[:len(r.writerIDs)-1]
	r.mu.Unlock()
	release := func() {
		r.mu.Lock()
		r.writerIDs = append(r.writerIDs, id)
		r.mu.Unlock()
	}
	s, err := r.newScan(int(id), true)
	if err != nil {
		release()
		return nil, err
	}
	// The collect skips the own component, so seed the sequence from its
	// current tag: a recycled identity must outbid its predecessor's last
	// publish, which only the own component records.
	seq, err := r.ownSeq(id)
	if err != nil {
		s.close()
		release()
		return nil, err
	}
	return &Writer{reg: r, id: id, scan: s, seq: seq, base: r.comps[id].WriteStats()}, nil
}

// ownSeq reads the sequence number currently published in component id,
// through a transient handle (the component is sized for it: at most
// N readers + M−1 collecting writers are live on it at any time).
func (r *Register) ownSeq(id uint32) (uint64, error) {
	h, err := r.comps[id].NewReaderHandle()
	if err != nil {
		return 0, fmt.Errorf("mnreg: component %d seed handle: %w", id, err)
	}
	defer h.Close()
	v, err := h.View()
	if err != nil {
		return 0, err
	}
	if len(v) < tagSize {
		return 0, fmt.Errorf("mnreg: component %d value shorter than tag header (%d bytes)", id, len(v))
	}
	return getTag(v).Seq, nil
}

// ID reports the writer identity.
func (w *Writer) ID() int { return int(w.id) }

// Write publishes a new value: collect the maximum tag visible across the
// other components (fresh-gated — unchanged components cost one load
// each), outbid it, publish into the own component (one wait-free ARC
// write). The own component is not collected: its tag is this writer's
// own last publish, already folded into w.seq.
func (w *Writer) Write(p []byte) error {
	if w.closed {
		return register.ErrReaderClosed
	}
	if len(p) > w.reg.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(p), w.reg.maxValueSize)
	}
	top, _, err := w.scan.collect()
	if err != nil {
		return err
	}
	if top.Seq > w.seq {
		w.seq = top.Seq
	}
	w.seq++
	tag := Tag{Seq: w.seq, Writer: w.id}
	putTag(w.scan.buf, tag)
	n := copy(w.scan.buf[tagSize:], p)
	if w.reg.epochCounters() {
		// Epoch-gate bracket: started before the publish, done after.
		// Readers treat started == done as "no publish in flight".
		w.reg.pubStarted.Add(1)
		defer w.reg.pubDone.Add(1)
		w.gateRMW += 2
	}
	return w.reg.comps[w.id].Write(w.scan.buf[:tagSize+n])
}

// epochCounters reports whether writers must maintain the shared publish
// counters (readers consult them only when the epoch gate is enabled).
func (r *Register) epochCounters() bool {
	return !r.opts.DisableFreshGate && !r.opts.DisableEpochGate
}

// WriteStats implements register.Writer for the composite: the own
// component's publish-side counters (this handle's share — a recycled
// identity does not inherit its predecessor's) plus the RMW instructions
// the tag collect spent on the other components. Collect only after the
// writer's goroutine has quiesced.
func (w *Writer) WriteStats() register.WriteStats {
	cur := w.reg.comps[w.id].WriteStats()
	ws := register.WriteStats{
		Ops:       cur.Ops - w.base.Ops,
		RMW:       cur.RMW - w.base.RMW,
		ScanSteps: cur.ScanSteps - w.base.ScanSteps,
		HintHits:  cur.HintHits - w.base.HintHits,
		CopyOuts:  cur.CopyOuts - w.base.CopyOuts,
		LockSpins: cur.LockSpins - w.base.LockSpins,
	}
	ws.RMW += w.scan.rmw() + w.gateRMW
	return ws
}

// Close releases the writer identity and its collect handles.
func (w *Writer) Close() error {
	if w.closed {
		return register.ErrReaderClosed
	}
	w.closed = true
	w.scan.close()
	w.reg.mu.Lock()
	w.reg.writerIDs = append(w.reg.writerIDs, w.id)
	w.reg.mu.Unlock()
	return nil
}

// Reader is one of the N read endpoints. One goroutine per Reader.
type Reader struct {
	reg     *Register
	scan    *scan
	lastTag Tag
	closed  bool
}

// Compile-time interface conformance checks against the shared register
// contract (the composite reader is plugged into the harness unchanged).
var (
	_ register.Reader      = (*Reader)(nil)
	_ register.FreshViewer = (*Reader)(nil)
	_ register.Writer      = (*Writer)(nil)
)

// NewReader allocates a reader handle.
func (r *Register) NewReader() (*Reader, error) {
	r.mu.Lock()
	if r.liveReaders >= r.readers {
		r.mu.Unlock()
		return nil, register.ErrTooManyReaders
	}
	r.liveReaders++
	r.mu.Unlock()
	s, err := r.newScan(-1, false)
	if err != nil {
		r.mu.Lock()
		r.liveReaders--
		r.mu.Unlock()
		return nil, err
	}
	return &Reader{reg: r, scan: s}, nil
}

// View returns the freshest value without copying. Valid until this
// handle's next View, Read or Close (every component view stays pinned
// until then). On the steady-state path — no component changed since the
// previous View — the cost is one atomic load per component: zero RMW
// instructions and zero tag decoding.
func (rd *Reader) View() ([]byte, error) {
	if rd.closed {
		return nil, register.ErrReaderClosed
	}
	tag, view, err := rd.scan.collect()
	if err != nil {
		return nil, err
	}
	rd.lastTag = tag
	return view[tagSize:], nil
}

// Read copies the freshest value into dst.
func (rd *Reader) Read(dst []byte) (int, error) {
	v, err := rd.View()
	if err != nil {
		return 0, err
	}
	if len(dst) < len(v) {
		return len(v), register.ErrBufferTooSmall
	}
	return copy(dst, v), nil
}

// LastTag reports the tag of the last value View/Read returned — the
// composite's version, used by tests to assert monotonicity.
func (rd *Reader) LastTag() Tag { return rd.lastTag }

// Fresh implements register.Reader at the composite level: it
// reports whether the last View/Read still returns the composite's
// current value, without advancing the handle's cache. A validated
// quiescent epoch answers in one atomic load; otherwise the probe costs
// one load per component. The answer is conservative: a component
// publish that loses the tag argmax still reports stale (the caller's
// re-read then serves the unchanged winner from the cache).
func (rd *Reader) Fresh() bool {
	if rd.closed {
		return false
	}
	s := rd.scan
	if s.best == noBest {
		return false // never collected
	}
	if s.epochGate && s.epochValid && s.reg.pubStarted.Load() == s.lastStarted {
		return true
	}
	if s.nprimed != s.ncomps {
		return false
	}
	for _, h := range s.handles {
		if h != nil && !h.Fresh() {
			return false
		}
	}
	return true
}

// ViewFresh implements register.FreshViewer at the composite level: the
// freshest value plus whether it is a different publication from the
// one the handle last returned. Fresh answers first, so a quiescent
// re-read costs one probe and is not counted in ReadStats. Because that
// probe is conservative, a re-read it sends through the collect then
// confirms the change by tag: a publish that lost the argmax reports
// unchanged. A handle that never read reports changed.
func (rd *Reader) ViewFresh() (view []byte, changed bool, err error) {
	s := rd.scan
	if rd.Fresh() {
		return s.views[s.best][tagSize:], false, nil
	}
	first, prev := s.best == noBest, rd.lastTag
	if view, err = rd.View(); err != nil {
		return nil, false, err
	}
	return view, first || rd.lastTag != prev, nil
}

// ReadStats implements register.Reader at the composite level: Ops
// counts composite reads, FastPath counts all-fresh collects (served
// entirely from the per-component cache with zero RMW), and RMW sums the
// RMW instructions the component handles executed. Collect only after the
// owning goroutine has quiesced.
func (rd *Reader) ReadStats() register.ReadStats {
	return register.ReadStats{
		Ops:      rd.scan.ops,
		FastPath: rd.scan.fastScans,
		RMW:      rd.scan.rmw(),
	}
}

// Close releases the handle.
func (rd *Reader) Close() error {
	if rd.closed {
		return register.ErrReaderClosed
	}
	rd.closed = true
	rd.scan.close()
	rd.reg.mu.Lock()
	rd.reg.liveReaders--
	rd.reg.mu.Unlock()
	return nil
}
