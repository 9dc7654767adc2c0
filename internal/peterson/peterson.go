// Package peterson implements a wait-free multi-word atomic (1,N) register
// in the style of Peterson's "Concurrent Reading While Writing" (ACM
// TOPLAS 1983) — the classical baseline the ARC paper compares against.
//
// # Model
//
// Peterson's construction predates hardware RMW adoption: it builds a
// multi-word register exclusively from single-word atomic read/write
// registers. This implementation stays inside that model — every shared
// word is accessed with a plain atomic load or store, and no RMW
// instruction is ever executed (ReadStats.RMW is always zero). Value
// buffers are arrays of 64-bit words accessed word-by-word, which is
// exactly the "array of single-word registers" the 1983 model prescribes;
// torn multi-word reads are possible by construction and are what the
// protocol detects and repairs.
//
// # Protocol
//
// The writer double-buffers the value and publishes through a monotone
// version word. Where Peterson used the boolean pair WFLAG/SWITCH as a
// two-phase clock, we use a single 64-bit version counter — the same
// information without wraparound case analysis; costs are unchanged.
//
//	write w:  copy value into buf[w%2] (word stores), then VER := w,
//	          then for every reader with a pending announce: copy the
//	          value into that reader's copy buffer and consume the
//	          announce.
//
//	read:     announce (READING[i] := ¬WRITING[i]); then up to two
//	          optimistic attempts, each a double collect
//	          (v := VER; copy buf[v%2]; v' := VER; clean iff v' == v);
//	          if both attempts are dirty, return the per-reader copy
//	          buffer, whose announce is then provably consumed.
//
// Why the clean attempt is untorn: writes store VER only after completing
// their buffer copy, and consecutive writes alternate buffers, so observing
// the same version before and after the copy means the source buffer held
// write v's complete value throughout (write v+1 targets the other buffer,
// and write v+2 cannot start before v+1 publishes, which would dirty the
// attempt).
//
// Why the fallback is safe: each dirty attempt brackets a distinct VER
// store; the write issuing the first store finishes its copy-out scan
// before the write issuing the second store begins, and that scan runs
// after the reader's announce — so by fallback time the announce has been
// consumed, meaning the copy into this reader's buffer completed and no
// writer touches it again until the reader's next announce. The returned
// value is that of a write concurrent with this read — linearizable, and
// never older than anything the reader returned before.
//
// # Costs (what the ARC paper measures)
//
// Reads perform one or two full-buffer copies, occasionally three (the
// fallback) — "it must be carried out multiple times (e.g., 2 times in
// [11])" (ARC paper §2). The writer performs one full copy plus up to N
// copy-outs. These extra copies are precisely the locality/caching cost
// that makes Peterson degrade with register size in Figures 1–3, and that
// ARC's zero-copy reads avoid. Buffer footprint: N+2 (two main + N
// per-reader), coinciding with the classical lower bound.
package peterson

import (
	"fmt"
	"sync"

	"arcreg/internal/membuf"
	"arcreg/internal/notify"
	"arcreg/internal/pad"
	"arcreg/internal/register"
)

// MaxReaders bounds reader handles; Peterson's construction scales with
// memory, not with a word width, so the bound is administrative.
const MaxReaders = 1 << 20

// Register is the Peterson-style (1,N) register.
type Register struct {
	// ver is the publication clock; buf[ver%2] holds the freshest value.
	ver pad.PaddedUint64

	// bufs are the two alternating main buffers; word 0 is the value
	// length in bytes, the rest is data. All access is word-atomic.
	bufs [2][]uint64

	// Per-reader handshake state and copy buffers.
	reading []pad.PaddedUint32 // written by reader i only
	writing []pad.PaddedUint32 // written by the writer only
	copybuf [][]uint64

	maxReaders   int
	maxValueSize int
	words        int // words per buffer (1 size word + data words)

	// Writer-local state.
	seq    uint64 // last published version
	wstats register.WriteStats
	// notify announces each publication to parked watchers: one store
	// plus one load of the (usually nil) gate pointer per Write, no RMW
	// and no allocation while nobody is parked.
	notify notify.Sequencer

	mu      sync.Mutex
	freeIDs []int
}

var (
	_ register.Register   = (*Register)(nil)
	_ register.Writer     = (*Register)(nil)
	_ register.StatWriter = (*Register)(nil)
	_ register.Reader     = (*Reader)(nil)
	_ register.StatReader = (*Reader)(nil)
)

// New constructs a Peterson register.
func New(cfg register.Config) (*Register, error) {
	if err := cfg.Validate(MaxReaders); err != nil {
		return nil, err
	}
	initial := cfg.InitialOrDefault()
	if cfg.MaxValueSize < len(initial) {
		cfg.MaxValueSize = len(initial)
	}
	n := cfg.MaxReaders
	words := membuf.WordsFor(cfg.MaxValueSize)
	r := &Register{
		reading:      make([]pad.PaddedUint32, n),
		writing:      make([]pad.PaddedUint32, n),
		copybuf:      membuf.WordMatrix(n, words),
		maxReaders:   n,
		maxValueSize: cfg.MaxValueSize,
		words:        words,
		freeIDs:      make([]int, 0, n),
	}
	r.bufs[0] = membuf.AlignedWords(words)
	r.bufs[1] = membuf.AlignedWords(words)
	for id := n - 1; id >= 0; id-- {
		r.freeIDs = append(r.freeIDs, id)
	}
	// Version 0's buffer and every copy buffer hold the initial value, so
	// a reader that falls back before the first write still returns it.
	membuf.StoreWords(r.bufs[0], initial)
	for i := range r.copybuf {
		membuf.StoreWords(r.copybuf[i], initial)
	}
	r.ver.Store(0)
	return r, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return "peterson" }

// Caps implements register.CapabilityReporter: Peterson reads inherently
// copy (no views, no freshness probe) but every operation is wait-free.
func (r *Register) Caps() register.Caps {
	return register.Caps{
		ReadStats:     true,
		WriteStats:    true,
		WaitFreeRead:  true,
		WaitFreeWrite: true,
	}
}

// MaxReaders implements register.Register.
func (r *Register) MaxReaders() int { return r.maxReaders }

// MaxValueSize implements register.Register.
func (r *Register) MaxValueSize() int { return r.maxValueSize }

// BufferCount reports the total value buffers (2 main + N per-reader).
func (r *Register) BufferCount() int { return 2 + len(r.copybuf) }

// Writer implements register.Register.
func (r *Register) Writer() register.Writer { return r }

// WriteStats implements register.StatWriter.
func (r *Register) WriteStats() register.WriteStats { return r.wstats }

// Write publishes a new value: one full copy into the off buffer, a
// single-word version store, then the copy-out scan serving pending reader
// announces. Wait-free, O(N + size); zero RMW instructions.
func (r *Register) Write(p []byte) error {
	if len(p) > r.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(p), r.maxValueSize)
	}
	w := r.seq + 1
	membuf.StoreWords(r.bufs[w%2], p)
	r.ver.Store(w)
	r.seq = w
	// Copy-out scan: serve every reader whose announce is pending. The
	// consume store MUST follow the copy — the reader's fallback-safety
	// proof depends on it.
	for i := range r.reading {
		ri := r.reading[i].Load()
		if ri != r.writing[i].Load() {
			membuf.StoreWords(r.copybuf[i], p)
			r.writing[i].Store(ri)
			r.wstats.CopyOuts++
		}
		r.wstats.ScanSteps++
	}
	r.wstats.Ops++
	r.notify.Publish()
	return nil
}

// Notifier returns the register's publication sequencer: its epoch
// advances once per Write, after the new value is visible, and
// watchers park on its gate.
func (r *Register) Notifier() *notify.Sequencer { return &r.notify }

// Reader is a per-goroutine read endpoint.
type Reader struct {
	reg    *Register
	id     int
	closed bool
	stats  register.ReadStats

	// hookAfterVersionLoad, when non-nil, runs inside each optimistic
	// attempt right after the opening version load. Tests use it to
	// interleave writes deterministically and drive the retry and
	// fallback paths; it is nil in production.
	hookAfterVersionLoad func(attempt int)
}

// NewReader implements register.Register.
func (r *Register) NewReader() (register.Reader, error) {
	rd, err := r.newReader()
	if err != nil {
		return nil, err
	}
	return rd, nil
}

// NewReaderHandle is the concrete-typed variant of NewReader.
func (r *Register) NewReaderHandle() (*Reader, error) { return r.newReader() }

func (r *Register) newReader() (*Reader, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.freeIDs) == 0 {
		return nil, register.ErrTooManyReaders
	}
	id := r.freeIDs[len(r.freeIDs)-1]
	r.freeIDs = r.freeIDs[:len(r.freeIDs)-1]
	return &Reader{reg: r, id: id}, nil
}

// ID reports the reader's slot index, for tests.
func (rd *Reader) ID() int { return rd.id }

// ReadStats implements register.StatReader.
func (rd *Reader) ReadStats() register.ReadStats { return rd.stats }

// Read copies the freshest value into dst — Peterson reads are inherently
// copying (there is no zero-copy View). If dst is too small the needed
// length is returned with ErrBufferTooSmall.
func (rd *Reader) Read(dst []byte) (int, error) {
	if rd.closed {
		return 0, register.ErrReaderClosed
	}
	reg := rd.reg
	// Announce: READING[i] := ¬WRITING[i] marks a pending handoff request.
	a := 1 - reg.writing[rd.id].Load()
	reg.reading[rd.id].Store(a)

	for attempt := 0; attempt < 2; attempt++ {
		if attempt == 1 {
			rd.stats.Retries++
		}
		v1 := reg.ver.Load()
		if rd.hookAfterVersionLoad != nil {
			rd.hookAfterVersionLoad(attempt)
		}
		size := membuf.LoadWords(reg.bufs[v1%2], dst, reg.maxValueSize)
		v2 := reg.ver.Load()
		if v1 == v2 {
			// Clean double collect: the buffer held write v1's complete
			// value throughout (see package comment).
			rd.stats.Ops++
			if size > len(dst) {
				return size, register.ErrBufferTooSmall
			}
			return size, nil
		}
	}
	// Both attempts dirty ⇒ the announce has been consumed (two distinct
	// version stores bracket a completed copy-out scan), so the copy
	// buffer is complete, quiescent until our next announce, and holds
	// the value of a write concurrent with this read.
	if reg.writing[rd.id].Load() != a {
		panic("peterson: fallback reached with unconsumed announce; handoff invariant violated")
	}
	rd.stats.Fallbacks++
	rd.stats.Ops++
	size := membuf.LoadWords(reg.copybuf[rd.id], dst, reg.maxValueSize)
	if size > len(dst) {
		return size, register.ErrBufferTooSmall
	}
	return size, nil
}

// Close releases the reader identity for reuse.
func (rd *Reader) Close() error {
	if rd.closed {
		return register.ErrReaderClosed
	}
	rd.closed = true
	reg := rd.reg
	reg.mu.Lock()
	reg.freeIDs = append(reg.freeIDs, rd.id)
	reg.mu.Unlock()
	return nil
}
