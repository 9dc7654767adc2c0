// Package arc implements Anonymous Readers Counting (ARC), the wait-free
// multi-word atomic (1,N) register of Ianni, Pellegrini and Quaglia
// (CLUSTER 2017). This package is the paper's primary contribution and the
// core of this repository; every statement labelled R1–R5, W1–W3 or I1
// below refers to the pseudo-code line of Algorithms 1–3 in the paper.
//
// # Protocol
//
// The register keeps N+2 slots (the classical lower bound for wait-free
// (1,N) registers), each holding one snapshot of the register value and a
// pair of counters:
//
//   - r_start: reads started on the slot during its last publication,
//     frozen into the slot by the writer when the slot is retired (W3);
//   - r_end: reads finished on the slot, incremented by readers (R3).
//
// A single 64-bit word, current = index<<32 | counter, names the freshest
// slot and counts the readers that acquired it. Readers are anonymous:
// acquiring the freshest snapshot is one AtomicAddAndFetch on current (R4)
// — it simultaneously increments the presence counter and returns the slot
// index. That anonymity is what lifts the reader bound from 58 (the RF
// register, which dedicates one bit per reader) to 2³²−2.
//
// A read that finds its previously acquired slot still freshest
// (current.index == last_index, R1–R2) returns the same buffer with zero
// RMW instructions — the fast path whose effect the paper measures in §5.
// Otherwise the reader releases its slot (R3) and acquires the new one
// (R4–R5): exactly two RMW instructions, constant time.
//
// The writer picks a free slot (r_start == r_end, excluding the slot it
// published last, W1), copies the new value in, zeroes the counters, and
// publishes with one AtomicExchange on current (W2). The counter value the
// exchange returns is frozen into the retired slot's r_start (W3): from
// then on the slot becomes free exactly when the readers it hosted have
// all moved on (r_end catches up to r_start). Readers accelerate the W1
// search by posting just-freed slots into a hint word (§3.4), making
// writes amortized constant time.
//
// # Slot buffers follow the versions readers hold
//
// The paper pre-allocates a MaxValueSize buffer per slot and calls the
// buffer policy an implementation choice (§3.3). Here the writer keeps a
// published prefix, slots [0, used). W1 searches only there, and takes
// slot used (growing the prefix) when no slot in it but last_slot is
// free. The prefix also shrinks as readers leave its top: a free top
// slot other than last_slot and the slot being filled leaves it with its
// counters zeroed and its buffer dropped. W1 trims when the §3.4 hint
// names the free top slot and the one slot it then probes below is free
// (it takes that slot), and on every 8th write. A fixed-buffer register
// allocates slot 0's buffer in New and a slot's buffer when the prefix
// grows onto it, so its buffers number one past the highest slot a
// reader holds (or the writer's two) — not N+2. Lemma 4.1 keeps the
// growth in range: a slot beyond the prefix is free, so when the prefix
// offers none, one lies beyond it. The trim is safe for the reason W3's
// drop is: a free slot other than last_slot has no holder and cannot be
// acquired again (DESIGN.md §3, "The published prefix").
//
// # Deviation from the paper's initialization
//
// Algorithm 1 initializes current to N, pre-charging all N statically
// known readers onto slot 0 (each implicitly holds one presence unit and
// starts with last_index = 0). This implementation defaults to dynamic
// reader registration: a fresh handle holds no slot (last_index is a
// sentinel) and its first read takes the acquire path without a release.
// The accounting of Lemma 4.1 is unchanged — Σ(r_start − r_end) is bounded
// by the number of live handles, at most N. The paper's static scheme is
// available via the StaticInit option and exercised by tests.
package arc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"arcreg/internal/membuf"
	"arcreg/internal/notify"
	"arcreg/internal/obs"
	"arcreg/internal/register"
	"arcreg/internal/trace"
	"arcreg/internal/word"
)

// noSlot is the sentinel last_index of a reader handle that holds no slot.
const noSlot = ^uint32(0)

// noHint marks an empty free-slot hint word.
const noHint = int64(-1)

// slot is one of the register's N+2 snapshot containers (paper §3.3).
// Its counters sit beside its value header, unpadded: a slot is 48 bytes,
// not the 288 a cache-line pair per counter would take, which is what
// lets a map hold many cold registers (DESIGN.md §3 weighs the cost).
type slot struct {
	// rStart is the number of reads that started on this slot during its
	// last publication. It is zeroed by the writer before publication and
	// frozen to the retired presence count at retirement (W3). Between
	// publication and retirement it stays 0 and is not consulted.
	rStart atomic.Uint64
	// rEnd counts reads finished on this slot (R3). rEnd ≤ total
	// acquisitions at all times; the slot is free iff rStart == rEnd and
	// it is not the freshest slot.
	rEnd atomic.Uint64
	// size is the length of the value stored in content. Written only by
	// the writer while the slot is free; readers observe it through the
	// happens-before edge established by the RMW chain on current.
	size int
	// content is the value buffer: on a fixed-buffer register a
	// MaxValueSize buffer the slot gets when the published prefix grows
	// onto it and keeps while it stays there; under DynamicBuffers the
	// exact-size buffer of the slot's last write, or nil once W3 dropped
	// it. nil on every slot beyond the prefix: a trim drops it.
	content []byte
}

// Options tune the register. The zero value is the paper's algorithm with
// all optimizations enabled.
type Options struct {
	// DisableFastPath forces every read through the release/acquire path
	// (R3–R5) even when the held slot is still freshest, i.e. it turns
	// off the R1–R2 optimization. Used by the ablation benchmarks to
	// quantify the RMW-avoidance claim of §1/§5.
	DisableFastPath bool
	// DisableFreeHint turns off the §3.4 reader-posted free-slot hint,
	// leaving the writer with the plain W1 linear scan. Used by the
	// amortized-constant-time ablation.
	DisableFreeHint bool
	// StaticInit reproduces Algorithm 1 literally: current starts at N
	// (index 0, counter N) and every handle starts pre-charged on slot 0
	// with last_index = 0. In this mode exactly MaxReaders handles can
	// ever be created (the paper's fixed-process model).
	StaticInit bool
	// DynamicBuffers implements the §3.3 variant the paper sketches: "In
	// any real implementation … dynamic buffer allocation/release, with
	// each buffer made up by the amount of bytes fitting the size of the
	// register value … could be employed." Each write allocates an
	// exact-size buffer instead of copying into the slot's MaxValueSize
	// one (which a fixed-buffer register holds for each slot of its
	// published prefix), and W3 releases the retired slot's buffer when
	// no reader acquired the slot while it was current; a slot trimmed
	// off the prefix drops its buffer too. A register so keeps at most
	// the current buffer, those of slots readers hold, and those of freed
	// slots not yet reused or trimmed, rather than one per slot.
	// Replaced and released buffers are reclaimed by the garbage
	// collector once no view holds them, which also makes stale views
	// safe indefinitely (they alias buffers no writer will ever touch
	// again). The price is one allocation per write.
	DynamicBuffers bool
}

// Register is a wait-free multi-word atomic (1,N) register.
//
// Concurrency contract: any number of goroutines may read, each through
// its own Reader handle; a single goroutine at a time may write. These are
// the paper's (1,N) ground rules, not an implementation shortcut.
type Register struct {
	// The first cache line holds every header field a read touches:
	// the two shared words and the fields fixed at New. Only the RMWs
	// on current (and the hint stores that ride with them) dirty it, and
	// a read that finds current changed fetches the line anyway; the
	// writer's per-write plain stores all land on later lines.

	// current is the synchronization word: index<<32 | counter (§3.3).
	current atomic.Uint64
	// freeHint is the §3.4 shared proposal word: the index of a slot a
	// reader observed becoming free, or noHint.
	freeHint atomic.Int64

	slots        []slot
	maxReaders   int
	maxValueSize int
	opts         Options
	// used is the published prefix, slots [0, used): W1 never looks
	// beyond it. Only the writer stores it, when the prefix grows or is
	// trimmed; Stats and FixedBuffers load it from any goroutine. It
	// fills the padding after opts, so the header keeps its size.
	used atomic.Uint32

	// seq is the publication sequencer watchers park on: Publish after
	// every W2 costs the writer one atomic store plus one load of the
	// (usually nil) gate pointer — zero RMW and zero allocation while
	// nobody is parked (see internal/notify and TestWatchZeroRMWIdle).
	seq notify.Sequencer

	// Writer-local state (single writer ⇒ plain fields).
	lastSlot   uint32 // slot of the last write; always == current index
	scanCursor uint32 // round-robin start position for the W1 scan
	wstats     register.WriteStats
	// rec is the writer's flight-recorder ring (nil = untraced): each
	// stamped write records one StagePublish event after the W2 swap.
	// Writer-owned like the rest of this block — Trace is wiring-time.
	rec *trace.Ring

	// Reader-handle accounting.
	mu          sync.Mutex
	liveReaders int
	everCreated int // static mode: total handles ever created
}

// Compile-time interface conformance checks.
var (
	_ register.Register    = (*Register)(nil)
	_ register.Writer      = (*Register)(nil)
	_ register.Reader      = (*Reader)(nil)
	_ register.FreshViewer = (*Reader)(nil)
)

// New constructs an ARC register from cfg. opts tunes paper ablations; use
// Options{} for the published algorithm.
func New(cfg register.Config, opts Options) (*Register, error) {
	if err := cfg.Validate(word.ARCMaxReaders); err != nil {
		return nil, err
	}
	initial := cfg.InitialOrDefault()
	if cfg.MaxValueSize < len(initial) {
		cfg.MaxValueSize = len(initial)
	}
	nslots := cfg.MaxReaders + 2 // the N+2 lower bound (§3.3)
	r := &Register{
		slots:        make([]slot, nslots),
		maxReaders:   cfg.MaxReaders,
		maxValueSize: cfg.MaxValueSize,
		opts:         opts,
	}
	// Algorithm 1: the initial value is posted into slot 0, the published
	// prefix's only member; every other slot starts with r_start == r_end
	// == 0 (free) and no buffer.
	if opts.DynamicBuffers {
		r.slots[0].content = append([]byte(nil), initial...)
		r.slots[0].size = len(initial)
	} else {
		r.slots[0].content = membuf.Aligned(cfg.MaxValueSize)
		r.slots[0].size = copy(r.slots[0].content, initial)
	}
	r.used.Store(1)
	if opts.StaticInit {
		// I1: current ← N — index 0, counter N, as if all N readers had
		// already started reading slot 0.
		r.current.Store(word.PackCurrent(0, uint32(cfg.MaxReaders)))
	} else {
		// Dynamic registration: nobody holds slot 0 yet.
		r.current.Store(word.PackCurrent(0, 0))
	}
	r.freeHint.Store(noHint)
	r.lastSlot = 0
	r.scanCursor = 0
	return r, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return "arc" }

// Caps implements register.Register: ARC has the full set — zero-copy
// views, the one-load freshness probe behind the R1–R2 fast path,
// combined probe-and-fetch, and wait-free progress for every operation.
func (r *Register) Caps() register.Caps {
	return register.Caps{
		ZeroCopyView:  true,
		FreshProbe:    true,
		FreshView:     true,
		WaitFreeRead:  true,
		WaitFreeWrite: true,
	}
}

// MaxReaders implements register.Register.
func (r *Register) MaxReaders() int { return r.maxReaders }

// MaxValueSize implements register.Register.
func (r *Register) MaxValueSize() int { return r.maxValueSize }

// SlotCount reports the number of snapshot slots (always MaxReaders+2).
func (r *Register) SlotCount() int { return len(r.slots) }

// FixedBuffers reports how many MaxValueSize buffers the register holds:
// on a fixed-buffer register one per slot of the published prefix (the
// Stats node's slots_used, which falls when a trim drops slots), under
// DynamicBuffers 0 (those buffers follow the values written, so only the
// caller can count them). Safe from any goroutine.
func (r *Register) FixedBuffers() int {
	if r.opts.DynamicBuffers {
		return 0
	}
	return int(r.used.Load())
}

// Footprint reports, from the types' sizes and the slot count, what a
// register built from cfg and opts costs: reg is the register header
// plus its slot array, and buf the bytes of one fixed value buffer (zero
// under DynamicBuffers). The register holds FixedBuffers of those.
func Footprint(cfg register.Config, opts Options) (reg, buf int) {
	nslots := cfg.MaxReaders + 2
	reg = int(unsafe.Sizeof(Register{})) + nslots*int(unsafe.Sizeof(slot{}))
	if !opts.DynamicBuffers {
		buf = membuf.AlignedBytes(cfg.MaxValueSize)
	}
	return reg, buf
}

// Writer implements register.Register. The register itself is the writer
// endpoint; the single-writer contract is the caller's to uphold.
func (r *Register) Writer() register.Writer { return r }

// WriteStats implements register.Writer. Call only while no write is
// in flight.
func (r *Register) WriteStats() register.WriteStats { return r.wstats }

// Stats returns the register's live telemetry as a Stats-tree node:
// capacity gauges, the published prefix's length (slots_used, a gauge
// that falls when the writer trims slots readers have left; on a
// fixed-buffer register also its buffer count) and the publication
// sequencer's counters. Safe from any goroutine at any time — it reads
// only tier-1 words (atomically published cells and the handle-table
// mutex), never the writer's or a reader's plain hot-path counters;
// those stay quiescent-collection only (WriteStats/ReadStats) per the
// DESIGN §10 recording discipline.
func (r *Register) Stats() obs.Snapshot {
	sn := obs.Snapshot{Name: "register"}
	sn.Put("slots", uint64(len(r.slots)))
	sn.Put("slots_used", uint64(r.used.Load()))
	sn.Put("max_readers", uint64(r.maxReaders))
	sn.Put("live_readers", uint64(r.LiveReaders()))
	sn.Children = append(sn.Children, r.seq.Stats())
	return sn
}

// Write publishes a new register value (Algorithm 3). It is wait-free:
// the free-slot search is bounded by the slot count (Lemma 4.1 guarantees
// success) and everything else is straight-line code. The value is copied
// exactly once, into the selected slot — ARC's "no intermediate copies"
// property.
func (r *Register) Write(p []byte) error { return r.WriteStamped(p, 0) }

// WriteStamped is Write with a caller-supplied origin stamp (trace.Now
// at the moment the caller decided to publish): the stamp becomes the
// span ID threading this publication through the flight recorder — the
// StagePublish event here, the notify cascade, watcher wakes, and any
// downstream delivery stages all share it. stamp 0 on a traced register
// self-stamps; on an untraced register it stays 0, so the plain Write
// path never reads the clock and its instruction trace is unchanged
// (see TestTraceZeroOverheadGuard).
func (r *Register) WriteStamped(p []byte, stamp int64) error {
	if len(p) > r.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(p), r.maxValueSize)
	}
	idx := r.findFreeSlot() // W1
	s := &r.slots[idx]
	if r.opts.DynamicBuffers {
		// §3.3 variant: an exact-size buffer per write. The previous
		// buffer (if W3 did not already drop it) is unreferenced by the
		// protocol once the slot was freed; the GC reclaims it when the
		// last stale view drops it.
		s.content = append(make([]byte, 0, len(p)), p...)
		s.size = len(p)
	} else {
		s.size = copy(s.content, p) // single copy of the new content
	}
	s.rStart.Store(0)
	s.rEnd.Store(0)
	// W2: publish atomically; the returned word carries the retired
	// slot's index and its final presence count.
	old := r.current.Swap(word.PublishWord(idx))
	r.wstats.RMW++
	oldSlot, readers := word.CurrentIndex(old), word.CurrentCounter(old)
	// W3: freeze the presence count into the retired slot. From here the
	// slot is free exactly when its readers have all released it.
	r.slots[oldSlot].rStart.Store(uint64(readers))
	if readers == 0 && r.opts.DynamicBuffers {
		// §3.3 buffer release: nobody acquired the retired slot during
		// its publication, and only a reader holding a slot loads its
		// content (the R2 fast path and R5), so no reader can reach this
		// buffer again. The swap's count is the one to trust: a count
		// loaded before it would miss an R4 landing just ahead of the
		// swap (internal/model's drop-stale-count mutant). Views taken
		// earlier keep the buffer alive for the GC on their own.
		r.slots[oldSlot].content = nil
	}
	r.lastSlot = idx
	r.wstats.Ops++
	// Flight recorder: one StagePublish event per traced write, after
	// the W2 swap (the publication instant) and before the wake, so the
	// span's first event timestamps the value becoming visible. Four
	// atomic stores plus a head publish into a writer-owned ring — no
	// RMW, no allocation; untraced registers skip even the clock read.
	if r.rec != nil {
		if stamp == 0 {
			stamp = trace.Now()
		}
		r.rec.Record(trace.StagePublish, idx, stamp, uint64(len(p)))
	}
	// Announce the publication after the W2 swap made it visible:
	// watchers woken here (or skipping their park on the epoch recheck)
	// observe the new current word. The stamp rides the wake so leaf
	// watchers and the recorder attribute latency to this publish.
	r.seq.PublishAt(stamp)
	return nil
}

// Trace attaches a flight-recorder ring to the writer: subsequent
// writes record StagePublish events and stamp their publications.
// Wiring-time only — call from the writer goroutine (or before the
// register is shared), like every writer-local field. nil detaches.
func (r *Register) Trace(ring *trace.Ring) { r.rec = ring }

// Notifier returns the register's publication sequencer: its epoch
// advances on every Write, and waiters park on its gate. Compositions
// chain the gate to an aggregate (mnreg's composite gate, regmap's
// shard gates) at wiring time.
func (r *Register) Notifier() *notify.Sequencer { return &r.seq }

// findFreeSlot returns a slot with r_start == r_end that is not the
// freshest slot (W1), and trims the published prefix when the §3.4 hint
// names its free top slot or on every 8th write (trimPrefix). Every 8th
// and not every write: loading the top slot's counters is a cross-core
// miss on a line readers RMW.
func (r *Register) findFreeSlot() uint32 {
	idx, topFree := r.pickFreeSlot()
	if topFree || r.wstats.Ops%8 == 0 {
		r.trimPrefix(idx)
	}
	return idx
}

// pickFreeSlot is W1's choice, the §3.4 reader hint first. It searches
// the published prefix [0, used) only, and takes slot used when the
// prefix has no free slot but last_slot. When the hint names the free
// top slot, it probes the one slot at the scan cursor below it and takes
// that slot if it is free, so that the top can leave the prefix, and
// reports topFree; else it takes the top.
func (r *Register) pickFreeSlot() (idx uint32, topFree bool) {
	used := r.used.Load()
	// The scan probes up to probes slots of [0, limit): one pass over the
	// whole prefix, or one slot below a free top the hint named. One and
	// not every lower slot: in a steady rotation they are all held, and
	// each probe is a cross-core miss on a line readers RMW.
	limit, probes := used, used
	if !r.opts.DisableFreeHint {
		if h := r.freeHint.Load(); h != noHint {
			// Single writer ⇒ load-then-clear needs no RMW. A hint a
			// reader posts between the load and the clear is lost, which
			// is harmless: hints are an accelerator, not a correctness
			// mechanism.
			r.freeHint.Store(noHint)
			idx := uint32(h)
			r.wstats.ScanSteps++
			if idx != r.lastSlot && idx < used {
				s := &r.slots[idx]
				// Re-validate: the hinted slot may have been reused for
				// an earlier write since the reader posted it (§3.4's
				// corner case).
				if s.rStart.Load() == s.rEnd.Load() {
					if idx != used-1 {
						r.wstats.HintHits++
						return idx, false
					}
					limit, probes = idx, 1
				}
			}
		}
	}
	// Linear scan from a roving cursor. A slot observed free cannot be
	// re-acquired by readers (only the freshest slot can be acquired, and
	// only the writer republishes), so one full pass finds a free slot if
	// the prefix holds one.
	if r.scanCursor >= limit {
		r.scanCursor = 0
	}
	for ; probes > 0; probes-- {
		idx := r.scanCursor
		r.scanCursor++
		if r.scanCursor >= limit {
			r.scanCursor = 0
		}
		r.wstats.ScanSteps++
		if idx == r.lastSlot {
			continue
		}
		s := &r.slots[idx]
		if s.rStart.Load() == s.rEnd.Load() {
			return idx, limit < used
		}
	}
	if limit < used {
		// The probe found no free slot below the hinted top: take the top.
		r.wstats.HintHits++
		return limit, false
	}
	// Lemma 4.1: Σ(r_start − r_end) ≤ N live readers, so at least 2 of
	// the N+2 slots are free and at least one of them is not last_slot.
	// None is in the prefix, and a slot beyond it has r_start == r_end ==
	// 0, so slot used is free and used < N+2: grow the prefix.
	if int(used) < len(r.slots) {
		if !r.opts.DynamicBuffers {
			r.slots[used].content = membuf.Aligned(r.maxValueSize)
		}
		r.used.Store(used + 1)
		return used, false
	}
	// Unreachable by Lemma 4.1. Reaching this line means the
	// implementation broke the paper's invariant — fail loudly rather
	// than corrupt data.
	panic("arc: no free slot found; Lemma 4.1 invariant violated")
}

// trimPrefix drops free slots off the published prefix's top, down to
// the first slot that is held, last_slot, or idx (the slot W1 chose).
// It is safe for the reason W3's buffer drop is: a free slot other than
// last_slot has no holder, and only the freshest slot can be acquired,
// so no reader loads the slot again before a write brings it back into
// the prefix. Zeroing its counters keeps the slot free, as a slot beyond
// the prefix must be. A hint still naming it fails W1's idx < used
// check, or, once the prefix has grown back over it, the counter check
// like any stale hint. The slot's buffer goes with it, fixed or dynamic:
// the growth that brings the slot back allocates a new one.
func (r *Register) trimPrefix(idx uint32) {
	used := r.used.Load()
	n := used
	for top := n - 1; top != r.lastSlot && top != idx; top-- {
		s := &r.slots[top]
		if s.rStart.Load() != s.rEnd.Load() {
			break
		}
		s.rStart.Store(0)
		s.rEnd.Store(0)
		s.content = nil
		n = top
	}
	if n < used {
		r.used.Store(n)
	}
}

// Reader is a per-goroutine read endpoint. It carries the process-local
// last_index state of Algorithm 2 and must not be shared between
// goroutines.
type Reader struct {
	reg *Register
	// lastIndex is the slot this handle holds a presence unit on, or
	// noSlot. Exactly the paper's last_index process-local variable.
	lastIndex uint32
	closed    bool
	stats     register.ReadStats
}

// NewReader implements register.Register. It fails with ErrTooManyReaders
// once MaxReaders handles are live (or, under StaticInit, were ever
// created).
func (r *Register) NewReader() (register.Reader, error) {
	rd, err := r.newReader()
	if err != nil {
		return nil, err
	}
	return rd, nil
}

// NewReaderHandle is the concrete-typed variant of NewReader, for callers
// that want the zero-copy View without a type assertion.
func (r *Register) NewReaderHandle() (*Reader, error) { return r.newReader() }

func (r *Register) newReader() (*Reader, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.opts.StaticInit {
		if r.everCreated >= r.maxReaders {
			return nil, register.ErrTooManyReaders
		}
		r.everCreated++
		r.liveReaders++
		// Algorithm 1/I1 pre-charged this handle's presence unit onto
		// slot 0 at construction time.
		return &Reader{reg: r, lastIndex: 0}, nil
	}
	if r.liveReaders >= r.maxReaders {
		return nil, register.ErrTooManyReaders
	}
	r.liveReaders++
	return &Reader{reg: r, lastIndex: noSlot}, nil
}

// LiveReaders reports the number of open reader handles.
func (r *Register) LiveReaders() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveReaders
}

// ReadStats implements register.Reader. Collect after the owning
// goroutine has quiesced.
func (rd *Reader) ReadStats() register.ReadStats { return rd.stats }

// Acquisitions counts the handle's slow-path reads: each one acquired a
// slot (R4), and no other step moves the handle onto a slot. Two equal
// counts therefore prove the handle held one slot throughout — and a
// held slot is never free, so never rewritten: every read in between
// returned the same publication. Owner goroutine only.
func (rd *Reader) Acquisitions() uint64 { return rd.stats.Ops - rd.stats.FastPath }

// View returns the freshest register value without copying (Algorithm 2).
// The returned slice aliases the slot buffer and remains valid until this
// handle's next View, Read or Close — the protocol pins the slot exactly
// that long (the handle's presence unit is outstanding, so the writer
// cannot observe r_start == r_end and recycle it). Callers must not write
// through the view.
//
// Wait-freedom: the fast path is one atomic load; the slow path adds two
// RMW instructions. There are no loops and no retries.
func (rd *Reader) View() ([]byte, error) {
	v, _, err := rd.ViewFresh()
	return v, err
}

// ViewFresh implements register.FreshViewer: View plus a change report.
// changed is false exactly when the call took the R1–R2 fast path onto the
// slot the handle already held — the same publication epoch as the
// previous read, so one atomic load and zero RMW instructions. Callers
// that cache state derived from the previous view (a decoded header, the
// view's tag) may keep it when changed is false; internal/mnreg gates its
// per-component collect on this.
func (rd *Reader) ViewFresh() ([]byte, bool, error) {
	if rd.closed {
		return nil, false, register.ErrReaderClosed
	}
	reg := rd.reg
	cur := reg.current.Load() // R1
	idx := word.CurrentIndex(cur)
	if !reg.opts.DisableFastPath && idx == rd.lastIndex {
		// R2: the held snapshot is still the freshest in the
		// linearizable history; return it without any RMW. The held slot
		// cannot have been republished (it is never free while held), so
		// index equality implies the same publication epoch — no ABA.
		s := &reg.slots[idx]
		rd.stats.Ops++
		rd.stats.FastPath++
		return s.content[:s.size], false, nil
	}
	// Slow path. R3: release the previously held slot, if any.
	rd.release()
	// R4: acquire the freshest slot and register presence in one RMW.
	cur = reg.current.Add(1)
	rd.stats.RMW++
	idx = word.CurrentIndex(cur) // R5
	rd.lastIndex = idx
	s := &reg.slots[idx]
	rd.stats.Ops++
	return s.content[:s.size], true, nil
}

// release increments r_end on the held slot (R3) and posts the §3.4 free
// hint when this release made the slot reusable.
func (rd *Reader) release() {
	if rd.lastIndex == noSlot {
		return
	}
	reg := rd.reg
	s := &reg.slots[rd.lastIndex]
	end := s.rEnd.Add(1)
	rd.stats.RMW++
	if !reg.opts.DisableFreeHint && end == s.rStart.Load() {
		// This release freed the slot: propose it to the writer. (If the
		// slot is instead still published and r_start is transiently 0,
		// end ≥ 1 ≠ 0 keeps the comparison false.)
		reg.freeHint.Store(int64(rd.lastIndex))
	}
	rd.lastIndex = noSlot
}

// Fresh implements register.Reader: it reports whether the slot this
// handle holds is still the freshest publication — the R1 comparison of
// the fast path, exposed as a standalone probe. One atomic load, zero
// RMW instructions, making "has anything changed?" polls essentially
// free.
func (rd *Reader) Fresh() bool {
	if rd.closed || rd.lastIndex == noSlot {
		return false
	}
	return word.CurrentIndex(rd.reg.current.Load()) == rd.lastIndex
}

// Read copies the freshest value into dst and returns its length,
// implementing register.Reader on top of View.
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

// Close releases the handle's presence unit and returns its capacity to
// the register.
func (rd *Reader) Close() error {
	if rd.closed {
		return register.ErrReaderClosed
	}
	rd.release()
	rd.closed = true
	reg := rd.reg
	reg.mu.Lock()
	reg.liveReaders--
	reg.mu.Unlock()
	return nil
}

// CheckInvariants verifies the structural invariants behind Lemma 4.1 and
// Lemma 4.2. It must be called at quiescence (no reads or writes in
// flight); tests call it between phases.
func (r *Register) CheckInvariants() error {
	cur := r.current.Load()
	idx := word.CurrentIndex(cur)
	if int(idx) >= len(r.slots) {
		return fmt.Errorf("arc: current index %d out of range (%d slots)", idx, len(r.slots))
	}
	if idx != r.lastSlot {
		return fmt.Errorf("arc: current index %d != lastSlot %d", idx, r.lastSlot)
	}
	// The published prefix holds the current slot and every slot a
	// reader holds; beyond it lie only free slots with zeroed counters
	// and no buffer. A fixed-buffer slot owns its MaxValueSize buffer
	// while it is in the prefix.
	used := r.used.Load()
	if int(used) > len(r.slots) || idx >= used {
		return fmt.Errorf("arc: published prefix %d out of range (current index %d, %d slots)", used, idx, len(r.slots))
	}
	for i := range r.slots {
		s := &r.slots[i]
		switch {
		case uint32(i) >= used:
			if s.rStart.Load() != 0 || s.rEnd.Load() != 0 || s.content != nil {
				return fmt.Errorf("arc: slot %d beyond the published prefix %d has r_start %d, r_end %d, %d-B buffer",
					i, used, s.rStart.Load(), s.rEnd.Load(), len(s.content))
			}
		case !r.opts.DynamicBuffers && len(s.content) != r.maxValueSize:
			return fmt.Errorf("arc: fixed-buffer slot %d holds a %d-B buffer, want %d", i, len(s.content), r.maxValueSize)
		}
	}
	// Σ(r_start − r_end) over retired slots plus the live counter must
	// not exceed the number of presence units ever issued to live
	// readers; at quiescence every live handle holds at most one unit.
	var outstanding int64
	for i := range r.slots {
		s := &r.slots[i]
		start := s.rStart.Load()
		end := s.rEnd.Load()
		if uint32(i) == idx {
			// Published slot: r_start is 0 until retirement; its
			// acquisitions live in the current counter.
			start = uint64(word.CurrentCounter(cur))
		}
		if end > start {
			return fmt.Errorf("arc: slot %d has r_end %d > r_start %d", i, end, start)
		}
		outstanding += int64(start) - int64(end)
	}
	r.mu.Lock()
	live := r.liveReaders
	static := r.opts.StaticInit
	created := r.everCreated
	maxR := r.maxReaders
	r.mu.Unlock()
	bound := int64(live)
	if static {
		// Pre-charged units of never-created handles are permanently
		// outstanding by design.
		bound = int64(live) + int64(maxR-created)
	}
	if outstanding > bound {
		return fmt.Errorf("arc: %d outstanding presence units exceed bound %d (live readers %d)",
			outstanding, bound, live)
	}
	// A writer must always find a free slot: count them (Lemma 4.1).
	free := 0
	for i := range r.slots {
		if uint32(i) == idx {
			continue
		}
		s := &r.slots[i]
		if s.rStart.Load() == s.rEnd.Load() {
			free++
		}
	}
	if free < 1 {
		return fmt.Errorf("arc: no free slot at quiescence; Lemma 4.1 violated")
	}
	return nil
}
