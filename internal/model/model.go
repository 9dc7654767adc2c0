// Package model is an explicit-state model checker for the ARC protocol:
// it exhaustively enumerates every interleaving of a small configuration
// (one writer, R readers, R+2 slots, a bounded number of operations) at
// the granularity of individual atomic actions, and checks the safety
// properties behind the paper's §4 proofs on every reachable state:
//
//   - Lemma 4.1 — the writer's free-slot search never fails;
//   - Lemma 4.2 — no reader ever observes a slot while the writer is
//     copying into it (value reads are modelled as two steps bracketing
//     the buffer access, so any overlapping write is caught as a torn
//     read, exactly like a multi-word access in the real system);
//   - Regularity (Theorem 4.3) — every read returns either the last
//     write completed before it started or a concurrent write's value;
//   - No new-old inversion (Theorem 4.4) — a read never returns a value
//     older than one returned by any read that completed before it
//     started (per-process order is the special case of a reader's own
//     previous read);
//   - No use after drop — under DynamicBuffers, W3 releases a retired
//     slot's buffer when the presence count the W2 swap returned is 0;
//     with Trim, W1 takes free slots out of the published prefix; no
//     reader may load a released or trimmed slot's buffer.
//
// Where the package-level tests of internal/arc sample schedules, the
// model checker covers all of them — for a bounded configuration. It also
// checks deliberately broken protocol mutants (wrong statement orders,
// missing exclusions) and demonstrates that each mutation is caught,
// which validates both the paper's design decisions and the checker
// itself.
//
// Modelling choices, and why they are sound:
//
//   - The W1 slot scan executes as one step. In the real algorithm the
//     scan is a sequence of loads, but a slot observed free cannot be
//     re-acquired before the writer publishes it (readers acquire only
//     the current slot), so collapsing the scan loses no violations. The
//     scan branches nondeterministically over every eligible slot.
//   - The value copy is two steps (begin/end) guarding a `writing` flag;
//     the value read is two steps recording (version, writing) at both
//     ends. A read is torn iff the flag was set at either end or the
//     version changed in between — the standard two-step simulation of
//     multi-word access.
//   - Reads and writes are bounded per run, and so is every counter:
//     each presence count is at most the R·MaxReadsPerReader reads that
//     could have acquired a slot.
//   - A dropped buffer is a slot version (dropped), not a new field, so
//     modelling the release adds no bits to a state. Only the value
//     load that follows R1 (fast path) or R4 (slow path) reaches a
//     slot's buffer, and that load is rReadBeg, so rReadBeg is where a
//     dropped slot is a use-after-drop.
//   - The trim is part of the W1 step, and it branches over every set
//     of eligible slots: it may take any free slot other than last_slot
//     and the one W1 chose, where the implementation takes only free
//     slots off the prefix's top. A trimmed slot gets zeroed counters
//     and the version dropped, as its buffer is released: no reader may
//     load it before a write refills it.
//     Folding the trim into W1 is sound for the reason the scan's
//     collapse is: no reader can hold or acquire a free slot that is
//     not last_slot, so no reader step can observe the trim half done.
//
// The visited set stores states packed to the configuration (see
// layout): for R = 2 a state is two words, where the fixed arrays the
// successor function works on take over 100 bytes. The set keeps its
// states in discovery order, which makes each BFS level a contiguous run
// of them, so the frontier costs no memory of its own. The checker runs
// on one goroutine, so the race detector has nothing to find in it; the
// packing and visited-set functions carry //go:norace because
// instrumenting their per-field bit operations made `go test -race`
// ~16× slower than a plain run, too slow for the deep configuration.
package model

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Config bounds the explored configuration.
type Config struct {
	// Readers is R; the model uses R+2 slots (the paper's bound).
	Readers int
	// MaxWrites bounds the writer's operations.
	MaxWrites int
	// MaxReadsPerReader bounds each reader's operations.
	MaxReadsPerReader int
	// Mutation selects a protocol variant (MutNone = faithful ARC).
	Mutation Mutation
	// DisableFastPath explores the ablated protocol (every read
	// releases and re-acquires).
	DisableFastPath bool
	// DynamicBuffers explores arc.Options.DynamicBuffers' buffer
	// release: W3 drops the retired slot's buffer when the presence
	// count the W2 swap returned is 0, and the slot holds no value until
	// a write reuses it.
	DynamicBuffers bool
	// Trim explores the published prefix's shrink: W1 may also take any
	// set of free slots other than last_slot and the slot it chose out
	// of the prefix, zeroing their counters and leaving them no value
	// until a write reuses them.
	Trim bool
	// MaxStates aborts exploration beyond this many states (safety net;
	// 0 means a generous default; state numbers are 32-bit).
	MaxStates int
}

// Mutation selects a deliberately broken protocol variant, used to prove
// the checker detects real bugs.
type Mutation int

const (
	// MutNone is the faithful ARC protocol.
	MutNone Mutation = iota
	// MutNoLastSlotExclusion lets W1 pick the slot that is currently
	// published (the paper's "slot ≠ last_slot" clause removed). The
	// writer can then overwrite the snapshot fast-path readers hold.
	MutNoLastSlotExclusion
	// MutNoFreeCheck lets W1 pick any slot other than last_slot without
	// checking r_start == r_end — overwriting snapshots readers still
	// hold.
	MutNoFreeCheck
	// MutAcquireBeforeRelease swaps R3 and R4: the reader acquires the
	// new slot before releasing the old one, transiently holding two
	// slots and breaking the Σ(r_start−r_end) ≤ N accounting that
	// Lemma 4.1 needs.
	MutAcquireBeforeRelease
	// MutFreezeBeforePublish swaps W2 and W3: the writer freezes the
	// retired slot's r_start before publishing the new slot, freezing a
	// stale counter value.
	MutFreezeBeforePublish
	// MutDropAlways drops the retired slot's buffer at W3 whatever its
	// presence count, so a reader that acquired the slot just before the
	// swap loads a dropped buffer. Requires DynamicBuffers.
	MutDropAlways
	// MutDropStaleCount decides the drop from a load of current taken
	// before the W2 swap, missing a reader whose R4 lands between that
	// load and the swap. Requires DynamicBuffers.
	MutDropStaleCount
	// MutTrimHeld trims slots without checking r_start == r_end, taking
	// slots readers still hold out of the prefix. Requires Trim.
	MutTrimHeld
	// MutTrimCurrent trims without excluding last_slot: the published
	// slot's r_start stays 0 until W3 and its r_end counts no release,
	// so it reads free (0 = 0) while readers hold or can acquire it.
	// Requires Trim.
	MutTrimCurrent
)

// String implements fmt.Stringer.
func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutNoLastSlotExclusion:
		return "no-last-slot-exclusion"
	case MutNoFreeCheck:
		return "no-free-check"
	case MutAcquireBeforeRelease:
		return "acquire-before-release"
	case MutFreezeBeforePublish:
		return "freeze-before-publish"
	case MutDropAlways:
		return "drop-always"
	case MutDropStaleCount:
		return "drop-stale-count"
	case MutTrimHeld:
		return "trim-held"
	case MutTrimCurrent:
		return "trim-current"
	}
	return "unknown"
}

// Program counters.
type wpc uint8

const (
	wIdle      wpc = iota
	wCopyEnd       // copy in progress; next step completes it
	wReset         // counters reset pending
	wPublish       // W2 pending
	wFreeze        // W3 pending
	wFreezeAlt     // mutation order: freeze before publish
	wPublishAlt
	wPeek        // mutation: the stale current load before W2
	wPublishDrop // mutation: W2 pending, the stale load saw count 0
	wFreezeDrop  // mutation: W3 pending, dropping the retired buffer
)

type rpc uint8

const (
	rIdle    rpc = iota
	rR1          // loaded nothing yet; next step is the R1 current load
	rRelease     // R3 pending (slow path, holding a slot)
	rAcquire     // R4 pending
	rReadBeg     // first half of the value read
	rReadEnd     // second half of the value read
	rRelLate     // mutation order: release after acquire
)

// Packed widths of the program counters.
var (
	wpcBits = uint(bits.Len(uint(wFreezeDrop) + 1))
	rpcBits = uint(bits.Len(uint(rRelLate) + 1))
)

// maxSlots bounds the fixed-size state arrays (R ≤ 6 ⇒ slots ≤ 8).
const maxSlots = 8

// maxReaders bounds the reader arrays.
const maxReaders = 6

// slotState is one register slot in the model.
type slotState struct {
	rStart  uint8
	rEnd    uint8
	ver     uint8 // version of the value stored
	writing bool  // writer mid-copy
}

// readerState is one reader process.
type readerState struct {
	pc        rpc
	lastIndex uint8 // slot held; noHold if none
	curIdx    uint8 // index loaded at R1/R4
	begVer    uint8 // version observed at read-begin
	begWrite  bool  // writing flag observed at read-begin
	reads     uint8 // operations completed
	// Atomicity bookkeeping, recorded at operation start:
	floorWrite uint8 // last write completed before this read started
	floorRead  uint8 // max version returned by reads completed before
	lastSeen   uint8 // per-process monotonicity
}

// noHold marks a reader holding no slot.
const noHold = uint8(0xFF)

// dropped is the version of a slot whose buffer W3 released.
const dropped = uint8(0xFF)

// state is one global state, unpacked: the form successors works on.
type state struct {
	slots    [maxSlots]slotState
	curIdx   uint8 // current word: slot index
	curCnt   uint8 // current word: presence counter
	writer   wpc
	wSlot    uint8 // slot chosen by W1
	wVer     uint8 // version being written
	wOldIdx  uint8 // index retired by W2
	wOldCnt  uint8 // counter retired by W2
	lastSlot uint8
	writes   uint8
	readers  [maxReaders]readerState
	// Global atomicity bookkeeping.
	completedWrites uint8 // version of the last COMPLETED write
	maxReadDone     uint8 // max version returned by any completed read
}

// Violation describes a property breach found on some reachable path.
type Violation struct {
	Kind  string
	Depth int
	Desc  string
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("model: %s at depth %d: %s", v.Kind, v.Depth, v.Desc)
}

// Result summarizes an exploration.
type Result struct {
	States      int
	Transitions int
	// Drops counts the transitions whose W3 released a buffer, so a
	// DynamicBuffers run can show its use-after-drop check was armed.
	Drops int
	// Trims counts the W1 transitions that trimmed at least one slot.
	Trims     int
	Violation *Violation // nil when every reachable state is safe
}

// Check explores the configuration exhaustively (BFS over the state
// graph) and returns the first violation found, if any.
func Check(cfg Config) (Result, error) {
	if cfg.Readers < 1 || cfg.Readers > maxReaders {
		return Result{}, fmt.Errorf("model: Readers must be in [1,%d]", maxReaders)
	}
	if cfg.Readers+2 > maxSlots {
		return Result{}, fmt.Errorf("model: too many slots")
	}
	if cfg.MaxWrites < 1 || cfg.MaxWrites > 200 {
		return Result{}, fmt.Errorf("model: MaxWrites must be in [1,200]")
	}
	if cfg.MaxReadsPerReader < 1 || cfg.MaxReadsPerReader > 200 {
		return Result{}, fmt.Errorf("model: MaxReadsPerReader must be in [1,200]")
	}
	if (cfg.Mutation == MutDropAlways || cfg.Mutation == MutDropStaleCount) && !cfg.DynamicBuffers {
		return Result{}, fmt.Errorf("model: mutation %s requires DynamicBuffers", cfg.Mutation)
	}
	if (cfg.Mutation == MutTrimHeld || cfg.Mutation == MutTrimCurrent) && !cfg.Trim {
		return Result{}, fmt.Errorf("model: mutation %s requires Trim", cfg.Mutation)
	}
	if cfg.MaxStates < 0 || int64(cfg.MaxStates) >= math.MaxUint32 {
		return Result{}, fmt.Errorf("model: MaxStates must be in [0,%d)", uint32(math.MaxUint32))
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 20_000_000
	}
	e := &explorer{cfg: cfg, nslots: cfg.Readers + 2}
	l := newLayout(cfg)

	var init state
	for i := range init.readers {
		init.readers[i].lastIndex = noHold
	}
	// Slot 0 holds version 0 (the initial value); writes produce 1,2,…

	set := newStateSet(l.words)
	packed := make([]uint64, l.words)
	l.pack(&init, packed)
	b, _ := set.lookup(packed)
	set.add(packed, b)

	// States [lo, hi) are the current BFS level; the states they discover
	// are appended after hi and form the next one.
	depth := 0
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, set.n {
		for i := lo; i < hi; i++ {
			var s state
			l.unpack(set.at(i), &s)
			succs, viol := e.successors(s, depth)
			if viol != nil {
				return Result{States: set.n, Transitions: e.transitions, Drops: e.drops, Trims: e.trims, Violation: viol}, nil
			}
			for j := range succs {
				l.pack(&succs[j], packed)
				b, seen := set.lookup(packed)
				if seen {
					continue
				}
				if set.n >= cfg.MaxStates {
					return Result{}, fmt.Errorf("model: state budget %d exhausted at depth %d", cfg.MaxStates, depth)
				}
				set.add(packed, b)
			}
		}
		depth++
	}
	return Result{States: set.n, Transitions: e.transitions, Drops: e.drops, Trims: e.trims}, nil
}

type explorer struct {
	cfg         Config
	nslots      int
	transitions int
	drops       int
	trims       int
	out         []state // successors' result, reused across calls
}

// layout gives each kind of state field the fewest bits that hold every
// value the configuration can reach, so a packed state grows with R,
// MaxWrites and MaxReadsPerReader instead of being sized for the largest
// model the state struct admits. A field stores v+1 (mod 256), which
// packs the 0xFF sentinels noHold and dropped as 0; no width exceeds the
// 8 bits of the unpacked field, so uint8 arithmetic survives the round
// trip unchanged.
type layout struct {
	slots, readers int
	idx            uint // slot indices
	cnt            uint // presence counters: at most R·MaxReadsPerReader
	ver            uint // versions, write counts, and the slot index the acquire-before-release mutant stashes in begVer
	ops            uint // per-reader operation counts
	words          int  // uint64 words per packed state
}

func newLayout(cfg Config) layout {
	width := func(hi int) uint { return uint(bits.Len(uint(min(hi+1, 255)))) }
	l := layout{
		slots:   cfg.Readers + 2,
		readers: cfg.Readers,
		idx:     width(cfg.Readers + 1),
		cnt:     width(cfg.Readers * cfg.MaxReadsPerReader),
		ver:     width(max(cfg.MaxWrites, cfg.Readers+1)),
		ops:     width(cfg.MaxReadsPerReader),
	}
	header := 4*l.idx + 2*l.cnt + wpcBits + 4*l.ver
	slot := 2*l.cnt + l.ver + 1
	reader := rpcBits + 2*l.idx + 4*l.ver + 1 + l.ops
	total := header + uint(l.slots)*slot + uint(l.readers)*reader
	l.words = int((total + 63) / 64)
	return l
}

// pack encodes s into dst, which holds l.words words.
//
//go:norace
func (l *layout) pack(s *state, dst []uint64) {
	clear(dst)
	p := packer{dst: dst}
	p.put(s.curIdx, l.idx)
	p.put(s.curCnt, l.cnt)
	p.put(uint8(s.writer), wpcBits)
	p.put(s.wSlot, l.idx)
	p.put(s.wVer, l.ver)
	p.put(s.wOldIdx, l.idx)
	p.put(s.wOldCnt, l.cnt)
	p.put(s.lastSlot, l.idx)
	p.put(s.writes, l.ver)
	p.put(s.completedWrites, l.ver)
	p.put(s.maxReadDone, l.ver)
	for i := range l.slots {
		sl := &s.slots[i]
		p.put(sl.rStart, l.cnt)
		p.put(sl.rEnd, l.cnt)
		p.put(sl.ver, l.ver)
		p.flag(sl.writing)
	}
	for i := range l.readers {
		r := &s.readers[i]
		p.put(uint8(r.pc), rpcBits)
		p.put(r.lastIndex, l.idx)
		p.put(r.curIdx, l.idx)
		p.put(r.begVer, l.ver)
		p.flag(r.begWrite)
		p.put(r.reads, l.ops)
		p.put(r.floorWrite, l.ver)
		p.put(r.floorRead, l.ver)
		p.put(r.lastSeen, l.ver)
	}
}

// unpack decodes src into s, the inverse of pack. s must be zero; the
// slots and readers beyond the configuration stay zero, which no step
// reads.
//
//go:norace
func (l *layout) unpack(src []uint64, s *state) {
	u := unpacker{src: src}
	s.curIdx = u.get(l.idx)
	s.curCnt = u.get(l.cnt)
	s.writer = wpc(u.get(wpcBits))
	s.wSlot = u.get(l.idx)
	s.wVer = u.get(l.ver)
	s.wOldIdx = u.get(l.idx)
	s.wOldCnt = u.get(l.cnt)
	s.lastSlot = u.get(l.idx)
	s.writes = u.get(l.ver)
	s.completedWrites = u.get(l.ver)
	s.maxReadDone = u.get(l.ver)
	for i := range l.slots {
		sl := &s.slots[i]
		sl.rStart = u.get(l.cnt)
		sl.rEnd = u.get(l.cnt)
		sl.ver = u.get(l.ver)
		sl.writing = u.flag()
	}
	for i := range l.readers {
		r := &s.readers[i]
		r.pc = rpc(u.get(rpcBits))
		r.lastIndex = u.get(l.idx)
		r.curIdx = u.get(l.idx)
		r.begVer = u.get(l.ver)
		r.begWrite = u.flag()
		r.reads = u.get(l.ops)
		r.floorWrite = u.get(l.ver)
		r.floorRead = u.get(l.ver)
		r.lastSeen = u.get(l.ver)
	}
}

// packer appends bit fields to a zeroed word slice, low bits first.
type packer struct {
	dst []uint64
	pos uint
}

//go:norace
func (p *packer) put(v uint8, w uint) {
	x := uint64(v + 1)
	if x>>w != 0 {
		// A bound in newLayout is wrong: storing the value would merge
		// distinct states and silently prune the exploration.
		panic(fmt.Sprintf("model: value %d overflows its %d-bit packed field", v, w))
	}
	p.bits(x, w)
}

//go:norace
func (p *packer) flag(b bool) {
	if b {
		p.bits(1, 1)
	} else {
		p.bits(0, 1)
	}
}

//go:norace
func (p *packer) bits(x uint64, w uint) {
	i, off := p.pos/64, p.pos%64
	p.dst[i] |= x << off
	if off+w > 64 {
		p.dst[i+1] |= x >> (64 - off)
	}
	p.pos += w
}

// unpacker reads back what a packer wrote.
type unpacker struct {
	src []uint64
	pos uint
}

//go:norace
func (u *unpacker) get(w uint) uint8 { return uint8(u.bits(w)) - 1 }

//go:norace
func (u *unpacker) flag() bool { return u.bits(1) != 0 }

//go:norace
func (u *unpacker) bits(w uint) uint64 {
	i, off := u.pos/64, u.pos%64
	x := u.src[i] >> off
	if off+w > 64 {
		x |= u.src[i+1] << (64 - off)
	}
	u.pos += w
	return x & (1<<w - 1)
}

// stateSet is the visited set and the BFS queue in one: packed states in
// discovery order, indexed by an open-addressing hash table of state
// numbers.
type stateSet struct {
	words int
	// chunks hold the packed states, chunkStates to a chunk: appending
	// never copies (or leaves behind) the states already stored.
	chunks [][]uint64
	table  []uint32 // state number + 1 per bucket; 0 marks an empty bucket
	n      int
}

const chunkStates = 1 << 16

func newStateSet(words int) *stateSet {
	return &stateSet{words: words, table: make([]uint32, 1<<16)}
}

//go:norace
func (ss *stateSet) at(i int) []uint64 {
	off := i % chunkStates * ss.words
	return ss.chunks[i/chunkStates][off : off+ss.words]
}

// lookup returns the bucket holding p and true, or the empty bucket
// where add would place p and false.
//
//go:norace
func (ss *stateSet) lookup(p []uint64) (uint64, bool) {
	if 4*(ss.n+1) > 3*len(ss.table) {
		ss.grow()
	}
	mask := uint64(len(ss.table) - 1)
	for b := hashWords(p) & mask; ; b = (b + 1) & mask {
		k := ss.table[b]
		if k == 0 {
			return b, false
		}
		if slices.Equal(ss.at(int(k-1)), p) {
			return b, true
		}
	}
}

// add stores p as a new state in the empty bucket lookup returned.
//
//go:norace
func (ss *stateSet) add(p []uint64, b uint64) {
	if ss.n%chunkStates == 0 {
		ss.chunks = append(ss.chunks, make([]uint64, 0, chunkStates*ss.words))
	}
	last := &ss.chunks[len(ss.chunks)-1]
	*last = append(*last, p...)
	ss.n++
	ss.table[b] = uint32(ss.n)
}

//go:norace
func (ss *stateSet) grow() {
	table := make([]uint32, 2*len(ss.table))
	mask := uint64(len(table) - 1)
	for i := range ss.n {
		b := hashWords(ss.at(i)) & mask
		for table[b] != 0 {
			b = (b + 1) & mask
		}
		table[b] = uint32(i + 1)
	}
	ss.table = table
}

// hashWords mixes a packed state into a bucket hash (the splitmix64
// finalizer over each word).
//
//go:norace
func hashWords(p []uint64) uint64 {
	var h uint64
	for _, w := range p {
		h ^= w
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// dropsAt reports whether the W3 step pending in s releases the retired
// slot's buffer. The faithful rule reads the count the W2 swap returned.
func (e *explorer) dropsAt(s state) bool {
	if !e.cfg.DynamicBuffers {
		return false
	}
	switch e.cfg.Mutation {
	case MutDropAlways:
		return true
	case MutDropStaleCount:
		return s.writer == wFreezeDrop
	}
	return s.wOldCnt == 0
}

// trimmable reports whether the trim in the W1 step that chose idx may
// take slot j out of the prefix from s. The faithful rule takes a free
// slot other than last_slot and idx; a slot already trimmed is skipped,
// since trimming it again changes nothing.
func (e *explorer) trimmable(s state, idx, j int) bool {
	sl := s.slots[j]
	if j == idx || sl.rStart == 0 && sl.rEnd == 0 && sl.ver == dropped {
		return false
	}
	switch e.cfg.Mutation {
	case MutTrimHeld:
		return uint8(j) != s.lastSlot
	case MutTrimCurrent:
		return sl.rStart == sl.rEnd
	}
	return uint8(j) != s.lastSlot && sl.rStart == sl.rEnd
}

// trim adds, beside the W1 successor ns that chose idx, one successor
// per non-empty set of slots the trim may take out of the prefix.
func (e *explorer) trim(ns state, idx int) {
	if !e.cfg.Trim {
		return
	}
	var cand [maxSlots]int
	n := 0
	for j := 0; j < e.nslots; j++ {
		if e.trimmable(ns, idx, j) {
			cand[n] = j
			n++
		}
	}
	for set := 1; set < 1<<n; set++ {
		ts := ns
		for b, j := range cand[:n] {
			if set&(1<<b) != 0 {
				ts.slots[j].rStart = 0
				ts.slots[j].rEnd = 0
				ts.slots[j].ver = dropped
			}
		}
		e.trims++
		e.add(ts)
	}
}

// successors enumerates every enabled atomic step from s.
func (e *explorer) successors(s state, depth int) ([]state, *Violation) {
	e.out = e.out[:0]

	// ----- Writer steps -----
	switch s.writer {
	case wIdle:
		if s.writes < uint8(e.cfg.MaxWrites) {
			// W1: choose a free slot. Branch over all eligible slots.
			found := false
			for idx := 0; idx < e.nslots; idx++ {
				sl := s.slots[idx]
				switch e.cfg.Mutation {
				case MutNoLastSlotExclusion:
					if sl.rStart != sl.rEnd {
						continue
					}
				case MutNoFreeCheck:
					if uint8(idx) == s.lastSlot {
						continue
					}
				default:
					if uint8(idx) == s.lastSlot || sl.rStart != sl.rEnd {
						continue
					}
				}
				found = true
				ns := s
				ns.wSlot = uint8(idx)
				ns.wVer = s.writes + 1
				ns.slots[idx].writing = true // copy begins
				ns.writer = wCopyEnd
				e.add(ns)
				e.trim(ns, idx)
			}
			if !found {
				return nil, &Violation{
					Kind:  "lemma-4.1",
					Depth: depth,
					Desc:  "writer found no free slot (free-slot search failed)",
				}
			}
		}
	case wCopyEnd:
		ns := s
		ns.slots[s.wSlot].writing = false
		ns.slots[s.wSlot].ver = s.wVer
		ns.writer = wReset
		e.add(ns)
	case wReset:
		ns := s
		ns.slots[s.wSlot].rStart = 0
		ns.slots[s.wSlot].rEnd = 0
		switch e.cfg.Mutation {
		case MutFreezeBeforePublish:
			ns.writer = wFreezeAlt
		case MutDropStaleCount:
			ns.writer = wPeek
		default:
			ns.writer = wPublish
		}
		e.add(ns)
	case wPeek: // mutation: load current ahead of W2, remember a 0 count
		ns := s
		if s.curCnt == 0 {
			ns.writer = wPublishDrop
		} else {
			ns.writer = wPublish
		}
		e.add(ns)
	case wPublish, wPublishDrop: // W2
		ns := s
		ns.wOldIdx = s.curIdx
		ns.wOldCnt = s.curCnt
		ns.curIdx = s.wSlot
		ns.curCnt = 0
		if s.writer == wPublishDrop {
			ns.writer = wFreezeDrop
		} else {
			ns.writer = wFreeze
		}
		e.add(ns)
	case wFreeze, wFreezeDrop: // W3
		ns := s
		ns.slots[s.wOldIdx].rStart = s.wOldCnt
		if e.dropsAt(s) {
			// The buffer release: the slot keeps no value until a
			// write reuses it.
			ns.slots[s.wOldIdx].ver = dropped
			e.drops++
		}
		ns.lastSlot = s.wSlot
		ns.writes = s.writes + 1
		ns.completedWrites = s.writes + 1
		ns.writer = wIdle
		e.add(ns)
	case wFreezeAlt: // mutation: freeze with the PRE-publish counter
		ns := s
		ns.slots[s.curIdx].rStart = s.curCnt
		ns.writer = wPublishAlt
		e.add(ns)
	case wPublishAlt:
		ns := s
		ns.curIdx = s.wSlot
		ns.curCnt = 0
		ns.lastSlot = s.wSlot
		ns.writes = s.writes + 1
		ns.completedWrites = s.writes + 1
		ns.writer = wIdle
		e.add(ns)
	}

	// ----- Reader steps -----
	for ri := 0; ri < e.cfg.Readers; ri++ {
		r := s.readers[ri]
		switch r.pc {
		case rIdle:
			if r.reads < uint8(e.cfg.MaxReadsPerReader) {
				ns := s
				nr := &ns.readers[ri]
				nr.floorWrite = s.completedWrites
				nr.floorRead = s.maxReadDone
				nr.pc = rR1
				e.add(ns)
			}
		case rR1: // load current; branch on fast path
			ns := s
			nr := &ns.readers[ri]
			nr.curIdx = s.curIdx
			if !e.cfg.DisableFastPath && r.lastIndex != noHold && s.curIdx == r.lastIndex {
				nr.pc = rReadBeg // fast path: straight to the value read
			} else if e.cfg.Mutation == MutAcquireBeforeRelease {
				nr.pc = rAcquire
			} else if r.lastIndex != noHold {
				nr.pc = rRelease
			} else {
				nr.pc = rAcquire
			}
			e.add(ns)
		case rRelease: // R3
			ns := s
			nr := &ns.readers[ri]
			ns.slots[r.lastIndex].rEnd++
			nr.lastIndex = noHold
			nr.pc = rAcquire
			e.add(ns)
		case rAcquire: // R4: counter++ and read index atomically
			ns := s
			nr := &ns.readers[ri]
			ns.curCnt = s.curCnt + 1
			nr.curIdx = ns.curIdx
			if e.cfg.Mutation == MutAcquireBeforeRelease && r.lastIndex != noHold {
				// The old hold is released AFTER acquiring (the mutation).
				nr.pc = rRelLate
				nr.begVer = nr.lastIndex // stash the old slot index
				nr.lastIndex = ns.curIdx
			} else {
				nr.lastIndex = ns.curIdx
				nr.pc = rReadBeg
			}
			e.add(ns)
		case rRelLate: // mutation: late R3
			ns := s
			nr := &ns.readers[ri]
			ns.slots[r.begVer].rEnd++ // begVer stashed the old slot
			nr.pc = rReadBeg
			e.add(ns)
		case rReadBeg: // first half of the multi-word value read
			if s.slots[r.lastIndex].ver == dropped {
				return nil, &Violation{
					Kind:  "use-after-drop",
					Depth: depth,
					Desc:  fmt.Sprintf("reader %d loaded slot %d after W3 or a trim released its buffer", ri, r.lastIndex),
				}
			}
			ns := s
			nr := &ns.readers[ri]
			nr.begVer = s.slots[r.lastIndex].ver
			nr.begWrite = s.slots[r.lastIndex].writing
			nr.pc = rReadEnd
			e.add(ns)
		case rReadEnd: // second half; all assertions fire here
			sl := s.slots[r.lastIndex]
			if r.begWrite || sl.writing || sl.ver != r.begVer {
				return nil, &Violation{
					Kind:  "lemma-4.2",
					Depth: depth,
					Desc: fmt.Sprintf("reader %d observed slot %d mid-write (torn read: begVer=%d endVer=%d begW=%v endW=%v)",
						ri, r.lastIndex, r.begVer, sl.ver, r.begWrite, sl.writing),
				}
			}
			v := sl.ver
			if v < r.floorWrite {
				return nil, &Violation{
					Kind:  "regularity",
					Depth: depth,
					Desc: fmt.Sprintf("reader %d returned version %d although write %d completed before the read started",
						ri, v, r.floorWrite),
				}
			}
			if v > s.writes+1 { // at most one write in flight
				return nil, &Violation{
					Kind:  "no-future",
					Depth: depth,
					Desc:  fmt.Sprintf("reader %d returned version %d; only %d writes started", ri, v, s.writes+1),
				}
			}
			if v < r.floorRead {
				return nil, &Violation{
					Kind:  "new-old-inversion",
					Depth: depth,
					Desc: fmt.Sprintf("reader %d returned version %d although an earlier-finished read returned %d",
						ri, v, r.floorRead),
				}
			}
			if v < r.lastSeen {
				return nil, &Violation{
					Kind:  "process-order",
					Depth: depth,
					Desc:  fmt.Sprintf("reader %d returned %d after previously returning %d", ri, v, r.lastSeen),
				}
			}
			ns := s
			nr := &ns.readers[ri]
			nr.lastSeen = v
			nr.reads = r.reads + 1
			if v > ns.maxReadDone {
				ns.maxReadDone = v
			}
			nr.pc = rIdle
			e.add(ns)
		}
	}
	return e.out, nil
}

// add records the transition to ns.
func (e *explorer) add(ns state) {
	e.transitions++
	e.out = append(e.out, ns)
}
