// Package regmap composes many ARC (1,N) registers into one addressable,
// sharded, wait-free snapshot map — the "large-scale data sharing" step
// the paper motivates: the register is the primitive, a keyed store of
// registers is the service built from it (registers as the communication
// substrate larger objects are composed from, in Vitányi's framing).
//
// # Structure
//
//   - Every key owns a dedicated ARC (1,N) register holding its current
//     value. Value reads inherit ARC's properties verbatim: wait-free,
//     zero-copy views, zero RMW instructions when the value is unchanged.
//
//   - Keys are partitioned over S shards by an FNV-1a hash. Each shard
//     owns a dynamically growable key directory — an append-only log of
//     add and tombstone entries; a key's position in the slot array is its
//     slot index, stable for the key's lifetime. Delete publishes a
//     tombstone and recycles the slot: a later creation may reuse it with
//     a fresh value register (a new slot generation), so deleted keys
//     never resurrect stale values.
//
//   - Delete/recreate churn accretes dead entries in the log, so the log
//     is compacted in epochs: when an append would cross the directory
//     ceiling (or on an explicit Map.Compact), the writer publishes a
//     fresh log that re-registers every live key at its current slot and
//     generation, under a bumped compaction generation in the header.
//     Readers that observe the bump discard their incremental-decode
//     cursor and rebase onto the new log; prefix-stability holds within
//     each compaction epoch (DESIGN.md §9). The bump doubles as the
//     repair path: a reader shard whose decode latched corrupt retries a
//     full rebase when the directory publishes again, so poisoned shards
//     heal instead of failing forever.
//
//   - Each shard publishes its directory with one atomic pointer store
//     of an immutable state: the log together with the slot arrays it
//     names (per-key registers and their generations). Adding or
//     deleting a key is one log append plus one such store by that
//     shard's writer. Published log bytes and slot elements are never
//     written again, so each state holds longer capped reslices of the
//     same append-only buffers: key creation costs amortized O(1), not
//     O(keys in the shard). Directory lookups, key enumeration and change
//     detection on the reader side are all wait-free pointer loads and
//     zero-copy reads, never mutex acquisitions.
//
// # The fresh-gated Get
//
// Every Reader handle caches, per shard, the decoded directory — a
// (publication, decode frontier, key→slot table, per-key ARC reader)
// tuple. A Get probes the shard's directory by comparing the published
// state pointer with the one it decoded (one atomic load, no RMW); only
// when the directory actually changed does it re-decode — and the decode
// is incremental: the append-only log is prefix-stable, so only the new
// tail entries are parsed. The key's
// own register is then read through arc.Reader.ViewFresh, whose unchanged
// case is ARC's R1–R2 fast path. A Get of an unchanged key on an
// unchanged directory therefore costs two atomic loads total — zero RMW
// instructions, zero decoding, zero copies — regardless of how many keys
// the map holds, and regardless of deletions elsewhere. A miss on an
// unchanged directory costs one atomic load plus a hash lookup.
//
// # The multi-key snapshot
//
// Reader.Snapshot returns a point-in-time copy of every live key. Each
// shard carries a pair of publish counters (pubStarted, bumped by the
// shard writer immediately before any publication — value write,
// directory append — and pubDone, bumped immediately after). A snapshot
// collects each shard under a validated counter window (started == done
// before the collect, started unchanged after it), then runs a global
// verification pass re-reading every shard's counter; shards that moved
// are re-collected. When a verification pass observes no movement, every
// shard's collected state was simultaneously current at the pass's start
// — a single linearization point for the whole map (see DESIGN.md §7 for
// the argument and for why an unvalidated counter gate is unsound).
// Snapshot executes no RMW instructions and retries only on observed
// publications.
//
// # Concurrency contract
//
// Each shard is single-writer: Set and Delete may be invoked concurrently
// only for keys living on different shards (ShardOf reports the routing).
// The common deployment is one writer goroutine for the whole map,
// mirroring the paper's (1,N) shape; partition keys by ShardOf to scale
// writes. Readers are one handle per goroutine, as everywhere in this
// module.
//
// The writer-to-reader handoff of a new key needs no locks: the log
// entry and the slot arrays that hold the key's register travel in the
// same published state, so a reader decodes every log against exactly
// the arrays the writer published with it. Slot reuse rewrites fresh
// copies of the arrays (an older state keeps the slot's previous
// incarnation), and each slot carries a generation — the incarnation
// key add entries record — which the decode checks against the state's
// own generations as a corruption check; see DESIGN.md §7.
package regmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"arcreg/internal/arc"
	"arcreg/internal/fault"
	"arcreg/internal/notify"
	"arcreg/internal/obs"
	"arcreg/internal/pad"
	"arcreg/internal/register"
	"arcreg/internal/trace"
)

// ErrKeyNotFound is returned by Get for a key no Set has created (or a
// deleted one), and by Delete for a key that does not exist.
var ErrKeyNotFound = errors.New("regmap: key not found")

// ErrDirectoryFull is returned by Set when a shard's live keys alone
// (after compacting away any dead log entries) cannot fit under the
// directory ceiling. It marks genuine capacity exhaustion, not churn:
// churn is absorbed by compaction epochs. Match with errors.Is.
var ErrDirectoryFull = errors.New("regmap: shard directory full")

// ErrShardCorrupt is returned by reads of a shard whose directory decode
// failed a structural or protocol check. A publication is one pointer
// store and is never torn, so the latch means the published state itself
// is bad (the writer never publishes one; InjectDirectoryCorruption
// does). The latch is per reader shard and heals: the reader retries a
// full rebase decode when the writer publishes again (Map.Compact
// guarantees a repairable publication). Match with errors.Is.
var ErrShardCorrupt = errors.New("regmap: shard directory corrupt")

// DefaultShards is the shard count when Config.Shards is zero.
const DefaultShards = 8

// dirMaxBytes bounds a shard directory log (1 GiB of entry material per
// shard — an administrative ceiling, not a pre-allocation: the log grows
// by append). The log is append-only, so delete/recreate churn consumes
// directory capacity until an append at the ceiling compacts it.
const dirMaxBytes = 1 << 30

// dirCapacity is the enforced log ceiling — a variable only so tests can
// exercise the full-directory paths without allocating a gibibyte.
var dirCapacity = dirMaxBytes

// dirHeaderSize is the fixed directory prefix: the 4-byte compaction
// generation (cgen), the only field fixed for a log's whole lifetime. It
// bumps once per compaction and is the reader's rebase signal. The
// publication's length delimits the log (there is no entry count), so a
// published log's bytes are never written again: each publication is a
// longer prefix of the same append-only buffer, published by reference,
// which is what keeps an append O(1).
const dirHeaderSize = 4

// Directory log entries are tagged with their target slot:
//
//	add:       uvarint(slot<<1) | uvarint(gen) | uvarint(len(key)) | key bytes
//	tombstone: uvarint(slot<<1|1)
//
// An add either appends a brand-new slot (slot == current slot count) or
// reuses a tombstoned one. The add carries the slot's generation
// explicitly: within one compaction epoch it matches the count of adds
// that targeted the slot, but a compacted log re-registers slots at
// their *current* generations, so readers cannot derive generations by
// counting — they decode them.
const tombstoneFlag = 1

// addEntryMax bounds an add entry's encoded size (three varints plus the
// key bytes) — the writer's capacity pre-check.
func addEntryMax(key string) int { return 3*binary.MaxVarintLen64 + len(key) }

// appendAdd appends one add entry for (slot, gen, key) to buf.
func appendAdd(buf []byte, slot int, gen uint32, key string) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(slot)<<1)
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(gen))
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(key)))
	buf = append(buf, tmp[:n]...)
	return append(buf, key...)
}

// Config parametrizes a Map.
type Config struct {
	// Shards is the number of key partitions, rounded up to a power of
	// two (default DefaultShards). More shards mean more write
	// parallelism headroom and smaller directories, at the cost of one
	// directory (and one decoded copy of it per Reader) each.
	Shards int
	// MaxReaders is N, the number of concurrently live Reader handles.
	MaxReaders int
	// MaxValueSize bounds values in bytes (default
	// register.DefaultMaxValueSize). Unless DynamicValues is set, a
	// per-key register holds one buffer of this size per slot it has
	// published: one for a key written once, at most the number of
	// versions readers hold at once plus two, never more than
	// MaxReaders+2.
	MaxValueSize int
	// DynamicValues selects the §3.3 dynamic-buffer variant for the
	// per-key value registers: each Set allocates an exact-size buffer
	// instead of copying into the slot's MaxValueSize one, and a value
	// no reader acquired is released when the next Set replaces it. A key then
	// holds at most its current buffer, those of slots readers hold, and
	// those of freed slots not yet reused, so memory scales with the
	// values actually stored — the right choice when the map holds many
	// keys with small or rarely-updated values.
	DynamicValues bool
	// Trace enables the always-on flight recorder: one writer ring per
	// shard (value and directory publications record StagePublish and
	// stamp the notify cascade), one ring for the map-level fan's root
	// relay, and a pool of watcher lanes Reader handles borrow. The
	// recording paths stay RMW- and allocation-free (owner-plain rings,
	// see internal/trace); untraced maps skip even the clock read, so
	// the hot paths are bit-identical with Trace off.
	Trace bool
	// TraceRingEvents is the per-ring event capacity when Trace is set
	// (default trace.DefaultRingEvents, rounded up to a power of two).
	TraceRingEvents int
	// TraceLanes bounds the watcher-lane pool when Trace is set
	// (default trace.DefaultLanes); readers beyond it run untraced.
	TraceLanes int
}

// fnv64Offset/fnv64Prime are the FNV-1a 64-bit parameters. The hash is
// inlined (rather than hash/fnv) to keep ShardOf allocation-free on the
// read path; the fuzz tests pin it to the stdlib implementation.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// Hash is the FNV-1a 64-bit hash of key — the map's shard router,
// exported for tests and for callers that partition writer goroutines.
func Hash(key string) uint64 {
	h := uint64(fnv64Offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnv64Prime
	}
	return h
}

// dirState is one directory publication: the log and, in slot order, the
// per-key registers and generations it names — capped reslices
// (wregs[:n:n]) of the writer's append-only buffers, so a publication
// costs one small allocation however long they are, and every state
// shares the prefix it covers. Nothing a state covers is written again:
// appends land past its lengths, and reusing a tombstoned slot rewrites
// fresh copies of the slot arrays.
type dirState struct {
	log  []byte
	regs []*arc.Register
	gens []uint32
}

// shard owns one key partition: the published directory, the snapshot
// publish counters, and the writer-side key table. All non-atomic fields
// are owned by the shard's single writer.
type shard struct {
	dir atomic.Pointer[dirState] // the latest directory publication
	// pubStarted / pubDone bracket every publication on this shard
	// (value write, directory append): the writer bumps pubStarted
	// immediately before and pubDone immediately after. Snapshot's
	// validated collect is built on them (see DESIGN.md §7).
	pubStarted pad.PaddedUint64
	pubDone    pad.PaddedUint64
	// liveKeys is the shard's live key count, maintained by the writer,
	// read by Map.Len.
	liveKeys atomic.Int64
	// notify is the per-shard publication sequencer: the shard writer
	// publishes it after every publication on the shard (value write,
	// key creation, tombstone), and its gate is chained to the map-level
	// watch gate, so whole-map watchers park in one place. Single-key
	// watchers park instead on the key register's own sequencer (woken
	// inside arc.Write) and on dirNotify, which every directory
	// publication wakes — sibling-key value traffic wakes neither. All
	// of it is store+load only: the publish paths stay RMW- and
	// allocation-free while nobody is parked.
	notify    notify.Sequencer
	dirNotify notify.Sequencer

	// rec is the shard writer's flight-recorder ring (nil = untraced):
	// the key registers and the directory publications record their
	// StagePublish events here (they share the shard's single writer,
	// so the ring stays single-writer), and stampNow reads the clock
	// only when it is set.
	rec *trace.Ring

	si          int             // shard index (error context)
	index       map[string]int  // writer-side key → slot (live keys only)
	wregs       []*arc.Register // writer-side slot array (append-only; copied on reuse)
	wgens       []uint32        // writer-side slot generations (same discipline)
	wkeys       []string        // writer-side slot → key ("" when dead) — compaction's source of truth
	freeSlots   []int           // tombstoned slots available for reuse
	epoch       uint64          // directory publish count (Stats dir_epoch; monotone across compactions)
	cgen        uint32          // compaction generation (bumps per compaction)
	nentries    int             // log entries in the current compaction epoch
	dirBuf      []byte          // directory log (append-only within an epoch; published prefixes are immutable)
	deletes     uint64          // tombstones published (including compaction-folded deletes)
	creates     uint64          // keys created (including re-creations)
	compactions uint64          // compaction epochs published
	buffers     uint64          // fixed value buffers the wregs registers hold (0 under DynamicValues)

	// stats mirrors the plain directory counters above as live cells
	// for Map.Stats. The writer flushes it with flushStats only inside
	// a publication window (after beginPub), so the validated collect
	// in statsSnapshot — same seqlock argument as Snapshot's — either
	// sees a mutually consistent flush or detects the overlap and
	// retries. In particular cgen == compactions in every snapshot the
	// walker accepts, even mid-Compact.
	stats shardStats
}

// shardStats is the shard writer's tier-1 live counter block:
// single-writer cells, pad-bracketed so neighbouring shards' walkers
// and writers do not false-share.
type shardStats struct {
	_           pad.CacheLinePad
	epoch       obs.Cell
	cgen        obs.Cell
	entries     obs.Cell
	dirBytes    obs.Cell
	creates     obs.Cell
	deletes     obs.Cell
	compactions obs.Cell
	slots       obs.Cell // len(wregs): live and tombstoned slots, each holding a register
	buffers     obs.Cell // fixed value buffers those registers hold
	_           pad.CacheLinePad
}

// beginPub / endPub bracket one publication for the snapshot gate.
func (sh *shard) beginPub() { sh.pubStarted.Add(1) }
func (sh *shard) endPub()   { sh.pubDone.Add(1) }

// stampNow returns the origin stamp for a publication about to happen
// on this shard: trace.Now when the shard is traced, 0 (unstamped)
// otherwise — so untraced publish paths never read the clock.
func (sh *shard) stampNow() int64 {
	if sh.rec == nil {
		return 0
	}
	return trace.Now()
}

// flushStats publishes the shard's directory counters into the live
// cells. Call only from the shard writer, only inside a publication
// window (between beginPub and endPub): the window is what lets the
// stats walker validate that the nine cells belong to one publication
// instead of tearing across two.
func (sh *shard) flushStats() {
	sh.stats.epoch.Store(sh.epoch)
	sh.stats.cgen.Store(uint64(sh.cgen))
	sh.stats.entries.Store(uint64(sh.nentries))
	sh.stats.dirBytes.Store(uint64(len(sh.dirBuf)))
	sh.stats.creates.Store(sh.creates)
	sh.stats.deletes.Store(sh.deletes)
	sh.stats.compactions.Store(sh.compactions)
	sh.stats.slots.Store(uint64(len(sh.wregs)))
	sh.stats.buffers.Store(sh.buffers)
}

// Map is a sharded wait-free snapshot map of ARC registers.
type Map struct {
	shards       []*shard
	mask         uint64
	maxReaders   int
	maxValueSize int
	dynamic      bool

	// watchGate aggregates every shard sequencer: any publication
	// anywhere in the map wakes watchers parked here (Reader.WatchAll).
	watchGate notify.Gate

	// watchTrack aggregates the live Watch/WatchAll population's
	// backpressure ledgers into the Stats tree. Watchers attach on
	// entry and detach on return — lifecycle edges, never per-event.
	watchTrack notify.Tracker

	// tracer owns the map's flight-recorder rings (nil when Config.Trace
	// is off — every use degrades to untraced); fanRing is the dedicated
	// ring of the map-level fan's root relay, attached lazily when the
	// first WatchAll session fans the watch gate.
	tracer  *trace.Tracer
	fanRing *trace.Ring

	mu          sync.Mutex
	liveReaders int
}

// New constructs a Map.
func New(cfg Config) (*Map, error) {
	if cfg.MaxReaders <= 0 {
		return nil, fmt.Errorf("regmap: MaxReaders must be positive, got %d", cfg.MaxReaders)
	}
	if cfg.MaxValueSize == 0 {
		cfg.MaxValueSize = register.DefaultMaxValueSize
	}
	if cfg.MaxValueSize < 0 {
		return nil, fmt.Errorf("regmap: MaxValueSize must be positive, got %d", cfg.MaxValueSize)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("regmap: Shards must be positive, got %d", cfg.Shards)
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	m := &Map{
		shards:       make([]*shard, nshards),
		mask:         uint64(nshards - 1),
		maxReaders:   cfg.MaxReaders,
		maxValueSize: cfg.MaxValueSize,
		dynamic:      cfg.DynamicValues,
	}
	if cfg.Trace {
		m.tracer = trace.New(trace.Config{RingEvents: cfg.TraceRingEvents, Lanes: cfg.TraceLanes})
		m.fanRing = m.tracer.Ring("fan-root")
	}
	for i := range m.shards {
		sh := &shard{
			si:     i,
			index:  make(map[string]int),
			dirBuf: make([]byte, dirHeaderSize), // cgen 0, no entries
		}
		sh.dir.Store(&dirState{log: sh.dirBuf})
		sh.notify.Chain(&m.watchGate)
		if m.tracer != nil {
			// One ring per shard writer; key registers join in addKey.
			sh.rec = m.tracer.Ring(fmt.Sprintf("shard%d", i))
		}
		sh.flushStats() // seed the live cells before the shard is shared
		m.shards[i] = sh
	}
	return m, nil
}

// Shards reports the shard count (a power of two).
func (m *Map) Shards() int { return len(m.shards) }

// MaxReaders reports the Reader-handle capacity N.
func (m *Map) MaxReaders() int { return m.maxReaders }

// MaxValueSize reports the per-value byte bound.
func (m *Map) MaxValueSize() int { return m.maxValueSize }

// ShardOf reports which shard key routes to — deterministic across
// processes and Map instances with the same shard count. Writers that
// want parallel Sets partition their keys by this.
func (m *Map) ShardOf(key string) int { return int(Hash(key) & m.mask) }

// Len reports the number of live keys in the map. Safe to call
// concurrently with Sets and Deletes (it sums the shards' atomic live
// counters; no cross-shard atomicity is implied — use Snapshot for
// that).
func (m *Map) Len() int {
	n := 0
	for _, sh := range m.shards {
		n += int(sh.liveKeys.Load())
	}
	return n
}

// Set publishes val under key, creating (or re-creating) the key if
// needed. Single goroutine per shard (see the package concurrency
// contract). The value is copied into a register slot; the caller keeps
// ownership of val.
func (m *Map) Set(key string, val []byte) error {
	if len(val) > m.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(val), m.maxValueSize)
	}
	sh := m.shards[m.ShardOf(key)]
	if i, ok := sh.index[key]; ok {
		reg := sh.wregs[i]
		held := reg.FixedBuffers()
		// Stamp the publication on traced shards: the key register's
		// StagePublish event, the shard notify wake, and every downstream
		// stage share this one span ID (see internal/trace).
		stamp := sh.stampNow()
		sh.beginPub()
		faultValuePublish.Hit()
		err := reg.WriteStamped(val, stamp)
		if d := reg.FixedBuffers() - held; d != 0 {
			// A fixed-buffer write that grew or trimmed the register's
			// published prefix changed its buffer count: apply the
			// change, inside the window like every stat cell.
			sh.buffers += uint64(d)
			sh.stats.buffers.Store(sh.buffers)
		}
		sh.endPub()
		if err == nil {
			sh.notify.PublishAt(stamp)
		}
		return err
	}
	return m.addKey(sh, key, val)
}

// Delete removes key from the map by publishing a tombstone in the
// shard's directory; the slot is recycled for a later creation.
// Returns ErrKeyNotFound when the key does not exist. Same single-writer-
// per-shard contract as Set. Readers holding views of the deleted key's
// value keep them (the retired register is never written again); readers
// observe the deletion on their next directory probe, so a concurrent Get
// linearizes before the delete and returns the last value, or after it
// and misses.
func (m *Map) Delete(key string) error {
	sh := m.shards[m.ShardOf(key)]
	slot, ok := sh.index[key]
	if !ok {
		return ErrKeyNotFound
	}
	var tagBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tagBuf[:], uint64(slot)<<1|tombstoneFlag)
	if len(sh.dirBuf)+n > dirCapacity {
		// No room for a tombstone: fold the deletion into a compaction
		// epoch — the fresh log simply omits the key, so Delete succeeds
		// at any fill level and the map can always shrink.
		sh.unbind(key, slot)
		sh.compact()
		return nil
	}
	sh.unbind(key, slot)
	faultDeleteRecycle.Hit()

	sh.epoch++
	sh.nentries++
	sh.dirBuf = append(sh.dirBuf, tagBuf[:n]...)
	faultDirPrepublish.Hit()
	sh.publishDir(sh.dirBuf, faultDirPublish)
	return nil
}

// unbind removes key (at slot) from the writer's live state; the
// directory publication (tombstone or compaction) follows separately.
func (sh *shard) unbind(key string, slot int) {
	delete(sh.index, key)
	sh.wkeys[slot] = ""
	sh.freeSlots = append(sh.freeSlots, slot)
	sh.deletes++
	sh.liveKeys.Add(-1)
}

// publishDir publishes log with the writer's slot arrays as one
// dirState: a single pointer store inside the publication window, so a
// reader that loads it decodes the log against exactly the registers
// and generations published with it. pt is the caller's in-window fault
// point. The wakes follow the window: the directory sequencer (the
// lifecycle gate single-key watchers park on), then the shard's.
func (sh *shard) publishDir(log []byte, pt *fault.Point) {
	n := len(sh.wregs)
	d := &dirState{log: log[:len(log):len(log)], regs: sh.wregs[:n:n], gens: sh.wgens[:n:n]}
	stamp := sh.stampNow()
	sh.beginPub()
	sh.flushStats()
	pt.Hit()
	sh.dir.Store(d)
	sh.rec.Record(trace.StagePublish, 0, stamp, uint64(len(log)))
	sh.endPub()
	sh.dirNotify.PublishAt(stamp)
	sh.notify.PublishAt(stamp)
}

// addKey creates a fresh register for the key (seeded with the first
// value, so the key is never visible without one — and so a re-created
// key can never resurrect its predecessor's value), installs it into a
// free slot (or appends one), appends an add entry to the directory log,
// and publishes both in one directory state. Appending a slot and
// publishing the longer log are both by reference, so creating a key
// costs amortized O(1) however many keys the shard holds; only reusing a
// slot copies the slot arrays.
func (m *Map) addKey(sh *shard, key string, val []byte) error {
	initial := val
	if initial == nil {
		initial = []byte{}
	}
	reg, err := arc.New(register.Config{
		MaxReaders:   m.maxReaders,
		MaxValueSize: m.maxValueSize,
		Initial:      initial,
	}, arc.Options{DynamicBuffers: m.dynamic})
	if err != nil {
		return fmt.Errorf("regmap: key %q register: %w", key, err)
	}
	// The key register's writer is the shard writer, so it shares the
	// shard's flight-recorder ring (nil on untraced maps).
	reg.Trace(sh.rec)
	if err := sh.ensureRoom(addEntryMax(key)); err != nil {
		return err
	}

	var slot int
	if n := len(sh.freeSlots); n > 0 {
		slot = sh.freeSlots[n-1]
		sh.freeSlots = sh.freeSlots[:n-1]
		// Published states alias the slot arrays, so rewrite a reused
		// slot in fresh copies: a reader decoding an older state keeps
		// seeing the slot's previous incarnation.
		sh.wregs = slices.Clone(sh.wregs)
		sh.wgens = slices.Clone(sh.wgens)
		sh.buffers -= uint64(sh.wregs[slot].FixedBuffers())
		sh.wregs[slot] = reg
		sh.wgens[slot]++
		sh.wkeys[slot] = key
	} else {
		slot = len(sh.wregs)
		sh.wregs = append(sh.wregs, reg)
		sh.wgens = append(sh.wgens, 1)
		sh.wkeys = append(sh.wkeys, key)
	}
	sh.buffers += uint64(reg.FixedBuffers())
	sh.index[key] = slot
	sh.creates++
	sh.liveKeys.Add(1)

	// Append the add entry to the prefix-stable log and re-publish.
	sh.epoch++
	sh.nentries++
	sh.dirBuf = appendAdd(sh.dirBuf, slot, sh.wgens[slot], key)
	faultDirPrepublish.Hit()
	sh.publishDir(sh.dirBuf, faultDirPublish)
	return nil
}

// ensureRoom guarantees the next append of up to need bytes fits under
// the directory ceiling, compacting first when the log carries dead
// entries (tombstones and their superseded adds). ErrDirectoryFull only
// when even the compacted live set leaves no room — genuine capacity
// exhaustion, not churn.
func (sh *shard) ensureRoom(need int) error {
	if len(sh.dirBuf)+need <= dirCapacity {
		return nil
	}
	if sh.nentries > len(sh.index) {
		sh.compact()
		if len(sh.dirBuf)+need <= dirCapacity {
			return nil
		}
	}
	return fmt.Errorf("%w: shard %d holds %d live keys in %d bytes (ceiling %d)",
		ErrDirectoryFull, sh.si, len(sh.index), len(sh.dirBuf), dirCapacity)
}

// compact publishes a new compaction epoch: a fresh directory log whose
// entries re-register every live key at its current slot and generation,
// under a bumped cgen. Slot numbering, value registers and generations
// are untouched — only the log representation resets — so reader handles
// parked on live keys survive the epoch (their (slot, gen) bindings
// re-validate against the new log). The publication epoch keeps rising
// across the bump: readers use it to order publications globally.
//
// compact is also the universal repair publication: it is built purely
// from the writer-side tables (index/wkeys/wgens), so after a crash that
// left an append unpublished — or after a corruption was injected behind
// the writer's back — one compact republishes the writer's truth, slot
// arrays included, and every latched reader rebases onto it.
func (sh *shard) compact() {
	sh.cgen++
	buf := make([]byte, dirHeaderSize, dirHeaderSize+len(sh.dirBuf)/2)
	binary.LittleEndian.PutUint32(buf, sh.cgen)
	count := 0
	for slot, key := range sh.wkeys {
		if key == "" {
			continue
		}
		buf = appendAdd(buf, slot, sh.wgens[slot], key)
		count++
	}
	sh.epoch++
	sh.nentries = count
	sh.dirBuf = buf
	sh.compactions++
	faultCompactBuilt.Hit()
	sh.publishDir(sh.dirBuf, faultCompactPublish)
}

// Compact publishes a compaction epoch on every shard: directory logs
// shrink to their live sets, and every reader-side corrupt latch in the
// map becomes repairable (readers rebase on their next touch). Writers
// rarely need to call it — appends auto-compact at the ceiling — but it
// is the explicit recovery step after a crash mid-operation and the
// administrative "truncate the logs now" knob.
//
// Compact is a writer-side operation on all shards at once: call it from
// the goroutine that owns the whole map's writes, or use CompactShard
// from partitioned writers.
func (m *Map) Compact() error {
	for _, sh := range m.shards {
		sh.compact()
	}
	return nil
}

// CompactShard publishes a compaction epoch on one shard, under the same
// single-writer-per-shard contract as Set and Delete.
func (m *Map) CompactShard(si int) error {
	m.shards[si].compact()
	return nil
}

// WriteStats aggregates the map's publish-side counters. Collect only at
// quiescence (no Set or Delete in flight), like every stats accessor in
// this module.
func (m *Map) WriteStats() WriteStats {
	var ws WriteStats
	for _, sh := range m.shards {
		ws.Directory.Ops += sh.epoch
		ws.Keys += sh.creates
		ws.Deletes += sh.deletes
		ws.Compactions += sh.compactions
		ws.DirBytes += uint64(len(sh.dirBuf))
		// Aggregate live incarnations only: a tombstoned slot keeps its
		// retired register parked until reuse, but its counters leave
		// the aggregate at the Delete (deterministically, as documented).
		for slot, reg := range sh.wregs {
			if sh.wkeys[slot] != "" {
				ws.Value.Add(reg.WriteStats())
			}
		}
	}
	return ws
}

// Stats returns the map's live telemetry as a Stats-tree node: map
// totals, one child per shard, and the aggregated watcher-backpressure
// ledger. Safe from any goroutine at any time, concurrently with Sets,
// Deletes and Compacts — unlike WriteStats it never touches the plain
// writer-side fields, only the shard stat cells flushed inside
// publication windows plus independently atomic gauges.
//
// Per-shard counters are mutually consistent: each shard node comes
// from one validated collect (statsSnapshot), so within it cgen ==
// compactions even while a Compact is publishing. Cross-shard totals
// sum per-shard snapshots taken at slightly different instants — the
// same per-shard consistency contract as Snapshot's value collect.
func (m *Map) Stats() obs.Snapshot {
	sn := obs.Snapshot{Name: "map"}
	var keys, pubs, wakes, epoch, entries, dirBytes, creates, deletes, compactions, nslots, nbufs uint64
	children := make([]obs.Snapshot, 0, len(m.shards)+1)
	for _, sh := range m.shards {
		node := sh.statsSnapshot()
		get := func(name string) uint64 { v, _ := node.Get(name); return v }
		keys += get("live_keys")
		pubs += get("publications")
		wakes += get("wakes")
		epoch += get("dir_epoch")
		entries += get("dir_entries")
		dirBytes += get("dir_bytes")
		creates += get("creates")
		deletes += get("deletes")
		compactions += get("compactions")
		nslots += get("slots")
		nbufs += get("fixed_buffers")
		children = append(children, node)
	}
	sn.Put("shards", uint64(len(m.shards)))
	sn.Put("live_keys", keys)
	sn.Put("live_readers", uint64(m.LiveReaders()))
	sn.Put("max_readers", uint64(m.maxReaders))
	sn.Put("publications", pubs)
	sn.Put("wakes", wakes)
	sn.Put("dir_epoch", epoch)
	sn.Put("dir_entries", entries)
	sn.Put("dir_bytes", dirBytes)
	sn.Put("creates", creates)
	sn.Put("deletes", deletes)
	sn.Put("compactions", compactions)
	sn.Children = append(sn.Children, m.memStats(nslots, nbufs, keys, dirBytes), m.watchTrack.Stats())
	if t := m.watchGate.Fanned(); t != nil {
		// The map-level gate's wakeup tree (attached by the first
		// WatchAll session): topology, live relays, cascade counters.
		sn.Children = append(sn.Children, t.Stats())
	}
	if m.tracer != nil {
		sn.Children = append(sn.Children, m.tracer.Stats())
	}
	sn.Children = append(sn.Children, children...)
	return sn
}

// slotRowBytes is one slot's row across the writer's slot arrays (wregs,
// wgens, wkeys). indexEntryEstimate is not counted but estimated: one
// live key's share of the writer's key index (map[string]int), its
// 24-byte key/value slot plus control-word and load-factor slack
// averaged over the table's growth — the runtime does not expose a
// map's bytes, so the mem node reports this share as key_index_est.
const (
	slotRowBytes       = unsafe.Sizeof((*arc.Register)(nil)) + unsafe.Sizeof(uint32(0)) + unsafe.Sizeof("")
	indexEntryEstimate = 40
)

// memStats is the Stats tree's "mem" node: the map's heap bytes by
// component, from the sums Stats already collects out of the shard
// cells (slots, fixed value buffers, live keys, directory bytes) and
// from the registers' type sizes — O(shards) in all, with no walk. The
// only per-Set bookkeeping is the change in buffer count a fixed-buffer
// Set makes when it grows or trims its register's published prefix.
// Every component but key_index_est is counted from sizes and counts;
// total includes that one estimate. Values stored under DynamicValues,
// key strings and reader-side state are not counted: they follow the
// values, the callers and the handles, not the map's shape.
func (m *Map) memStats(nslots, nbufs, liveKeys, dirBytes uint64) obs.Snapshot {
	valReg, valBuf := arc.Footprint(register.Config{
		MaxReaders: m.maxReaders, MaxValueSize: m.maxValueSize,
	}, arc.Options{DynamicBuffers: m.dynamic})
	regs := nslots * uint64(valReg)
	bufs := nbufs * uint64(valBuf)
	tables := nslots * uint64(slotRowBytes)
	index := liveKeys * indexEntryEstimate

	sn := obs.Snapshot{Name: "mem"}
	sn.Put("registers", regs)
	sn.Put("value_buffers", bufs)
	sn.Put("slot_tables", tables)
	sn.Put("key_index_est", index)
	sn.Put("dir_logs", dirBytes)
	sn.Put("total", regs+bufs+tables+index+dirBytes)
	return sn
}

// WatchTracker returns the map's watcher-population tracker. Watch and
// WatchAll attach their ledgers automatically; compositions embedding
// the map can attach their own.
func (m *Map) WatchTracker() *notify.Tracker { return &m.watchTrack }

// Tracer returns the map's flight recorder, nil when Config.Trace is
// off. Walk it for span dumps and per-stage latency breakdowns (all
// walker-side: the recording domains stay wait-free).
func (m *Map) Tracer() *trace.Tracer { return m.tracer }

// traceTree attaches a freshly named recorder ring to a wakeup tree's
// root relay, once per tree: a tree's root relay is a single-writer
// domain, so each traced tree needs its own ring. Attach-once is
// serialized under m.mu (watch-session wiring, never per-event); an
// untraced map is a no-op. Rings accumulate per watched key
// incarnation — bounded by the keys actually watched on a traced map.
func (m *Map) traceTree(t *notify.Tree, name string) {
	if m.tracer == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !t.Traced() {
		t.Trace(m.tracer.Ring(name))
	}
}

// FanRelays sums the running relay goroutines across every wakeup tree
// attached anywhere in the map — value registers, shard directories,
// the map-level gate. Quiescent collection (like ReadStats): call with
// no concurrent shard writer, since it walks the writer-side slot
// arrays unlocked. Leak tests use it to pin that the sum drains to
// zero once every watch session has ended.
func (m *Map) FanRelays() int64 {
	var n int64
	for _, sh := range m.shards {
		if t := sh.dirNotify.Fanned(); t != nil {
			n += t.Relays()
		}
		for _, reg := range sh.wregs {
			if reg == nil {
				continue
			}
			// Fanned, not Gate().Fanned(): the walk must not install a
			// gate on every key it passes.
			if t := reg.Notifier().Fanned(); t != nil {
				n += t.Relays()
			}
		}
	}
	if t := m.watchGate.Fanned(); t != nil {
		n += t.Relays()
	}
	return n
}

// statsSnapshot is one shard's validated live collect: load the
// publish window counters, require quiescence (started == done), read
// the stat cells, and accept only if no publication began meanwhile —
// the seqlock discipline Snapshot already uses for values, applied to
// counters. Because the writer flushes the cells exclusively inside
// windows, an accepted read is a point-in-time copy of one flush.
func (sh *shard) statsSnapshot() obs.Snapshot {
	for {
		s1 := sh.pubStarted.Load()
		if s1 != sh.pubDone.Load() {
			runtime.Gosched() // publication in flight: wait it out
			continue
		}
		node := obs.Snapshot{Name: fmt.Sprintf("shard%d", sh.si)}
		node.Put("dir_epoch", sh.stats.epoch.Load())
		node.Put("cgen", sh.stats.cgen.Load())
		node.Put("dir_entries", sh.stats.entries.Load())
		node.Put("dir_bytes", sh.stats.dirBytes.Load())
		node.Put("creates", sh.stats.creates.Load())
		node.Put("deletes", sh.stats.deletes.Load())
		node.Put("compactions", sh.stats.compactions.Load())
		node.Put("slots", sh.stats.slots.Load())
		node.Put("fixed_buffers", sh.stats.buffers.Load())
		// Independently atomic gauges: consistent with themselves, not
		// window-validated (live_keys moves just outside the window).
		node.Put("live_keys", uint64(sh.liveKeys.Load()))
		node.Put("publications", sh.notify.Epoch())
		node.Put("wakes", sh.notify.Wakes())
		if sh.pubStarted.Load() == s1 {
			return node
		}
		// A publication overlapped the cell reads: the node may mix two
		// flushes — discard and retry.
	}
}

// WriteStats counts the work the map's writer side performed.
type WriteStats struct {
	// Value aggregates the per-key value registers' write counters
	// (live incarnations only; registers retired by Delete drop out).
	Value register.WriteStats
	// Directory counts the shards' directory publications in Ops (key
	// creations, tombstones and compactions: the summed dir_epoch). A
	// publication is one pointer store, so its other counters read 0.
	Directory register.WriteStats
	// Keys is the number of keys created, including re-creations of
	// deleted keys.
	Keys uint64
	// Deletes is the number of keys deleted (tombstones published, plus
	// deletions folded directly into a compaction at the ceiling).
	Deletes uint64
	// Compactions is the number of compaction epochs published
	// (automatic and explicit).
	Compactions uint64
	// DirBytes is the current total directory log size across shards —
	// the bounded-memory observable: under churn it saws between the
	// live-set size and the ceiling instead of growing without bound.
	DirBytes uint64
}

// ReadStats counts the work a Reader handle performed.
type ReadStats struct {
	// ReadStats: Ops counts Gets (hits and misses), FastPath counts Gets
	// served with zero RMW instructions (unchanged directory and unchanged
	// or absent key), RMW counts the RMW instructions the per-key handles
	// executed, Close's releases included (a directory refresh executes
	// none).
	register.ReadStats
	// Misses counts Gets of absent keys.
	Misses uint64
	// DirRefreshes counts directory re-decodes (a changed directory
	// observed); the incremental decode parses only the tail entries.
	DirRefreshes uint64
	// Snapshots counts completed Snapshot calls; SnapshotRetries counts
	// shard re-collects forced by concurrently observed publications
	// (zero at steady state).
	Snapshots       uint64
	SnapshotRetries uint64
	// Repairs counts corrupt latches this handle cleared by rebasing
	// onto a later publication (see ErrShardCorrupt).
	Repairs uint64
}

// readerShard is a Reader's per-shard cache: the directory publication
// it decoded plus the decoded (key→slot table, per-key handle) state.
type readerShard struct {
	sh *shard
	// dir is the publication the decoded state comes from (nil until the
	// first refresh; the failing one while latched corrupt): the shard
	// published since exactly when sh.dir no longer holds it. Its regs
	// serve the live bindings.
	dir *dirState
	// table maps live keys to slots; keys, gens, live mirror the decoded
	// log per slot (key bound to the slot, its generation — the count of
	// add entries that targeted it — and whether the binding is live).
	// handles are the lazily created per-key reader handles, nil until
	// first Get.
	table   map[string]int
	keys    []string
	gens    []uint32
	live    []bool
	handles []*arc.Reader
	// displaced stages handles pulled off their slots mid-decode: the
	// decode may yet fail (and a later rebase may prove the displacement
	// was poisoned), so the handle is not retired until a decode commits.
	// On commit, a staged handle whose slot still carries its generation
	// (with no replacement handle) is reinstated; the rest pin
	// incarnations that are gone for good and are closed there. The
	// staging is what keeps repair from leaking handle capacity: each
	// value register has exactly MaxReaders handles, so a reader must
	// never re-acquire a handle for an incarnation it still holds one
	// for. A handle displaced by a tombstone *alone* is never staged: it
	// stays parked at its (dead) slot, still pinning exactly incarnation
	// gens[slot], so a compaction rebase that re-registers the slot at
	// that same generation picks it back up with zero RMW — and the
	// slot's next true recycle displaces it for real.
	displaced []displacedHandle
	// retiredN counts the handles commits closed, and retiredRMW sums
	// the RMW they executed, their closing release included — what the
	// tests' handle walk adds for handles no longer reachable.
	retiredN   int
	retiredRMW uint64
	// cgen is the decoded compaction generation: a publication with a
	// different cgen makes the reader rebase — drop every binding and
	// the incremental frontier, then decode the fresh log from its start.
	// tailOff is the incremental decode frontier: the byte offset of the
	// first undecoded entry, valid across publications because the log
	// is prefix-stable within a cgen. It doubles as the in-epoch
	// monotonicity guard: a later publication is never shorter, so one
	// that is (without a rebase) means the protocol broke.
	cgen    uint32
	tailOff int
	// corrupt latches a failed decode: dir already holds the broken
	// publication (so freshness probes would pass), and the decode may
	// have half-applied the tail — serving that state
	// silently would be worse than failing, so operations on the shard
	// return the original error until the latch heals: when the
	// directory publishes again, the reader retries with a full rebase
	// decode (all poisoned incremental state discarded), and on success
	// the latch clears (ReadStats.Repairs counts these).
	corrupt error
}

// displacedHandle is one staged handle displacement: h was this reader's
// handle for incarnation gen of slot when a decode replaced the slot's
// generation. See readerShard.displaced.
type displacedHandle struct {
	slot int
	gen  uint32
	h    *arc.Reader
}

// Reader is a per-goroutine read endpoint over the whole map. One handle
// per goroutine; at most MaxReaders live at once.
type Reader struct {
	m      *Map
	shards []readerShard
	closed bool

	// lane is the handle's borrowed flight-recorder ring (nil on
	// untraced maps or when the lane pool is exhausted); laneFree
	// returns it at Close. watchWS points at the ledger of the watch
	// iteration currently running on this handle, so downstream
	// single-writer stages (the HTTP layer's SSE flush) can read
	// LastWake from the owning goroutine.
	lane     *trace.Ring
	laneFree func()
	watchWS  *notify.WatchStats

	// rmw is the running total of RMW instructions the per-key handles
	// executed, added where they execute them (a changed ViewFresh, the
	// releases of displaced handles and of Close), so Stats reads it in
	// O(1) however many keys the handle has touched.
	rmw         uint64
	ops         uint64
	fastPath    uint64
	misses      uint64
	refreshes   uint64
	snapshots   uint64
	snapRetries uint64
	repairs     uint64
}

// NewReader allocates a reader handle (per-key handles are created
// lazily on first Get of each key).
func (m *Map) NewReader() (*Reader, error) {
	m.mu.Lock()
	if m.liveReaders >= m.maxReaders {
		m.mu.Unlock()
		return nil, register.ErrTooManyReaders
	}
	m.liveReaders++
	m.mu.Unlock()
	r := &Reader{m: m, shards: make([]readerShard, len(m.shards))}
	r.lane, r.laneFree = m.tracer.AcquireLane()
	for i, sh := range m.shards {
		r.shards[i] = readerShard{sh: sh, table: make(map[string]int), tailOff: dirHeaderSize}
	}
	return r, nil
}

// moved reports whether the shard published a directory state since the
// one rs decoded: one atomic load, no RMW.
func (rs *readerShard) moved() bool { return rs.sh.dir.Load() != rs.dir }

// current reports whether rs may serve reads as decoded: not latched
// corrupt, and no directory publication since its decode.
func (rs *readerShard) current() bool { return rs.corrupt == nil && !rs.moved() }

// rebase discards the incremental-decode cursor for a new compaction
// epoch (or a repair): every binding is dropped — the fresh log's
// entries re-register the live ones — and the frontier resets to the
// log's start. Handles stay parked at their slots: a binding that
// re-registers with an unchanged generation picks its handle back up
// for free, one that re-registers with a new generation displaces it
// through the normal staging path.
func (rs *readerShard) rebase(cgen uint32) {
	for slot := range rs.live {
		rs.live[slot] = false
	}
	clear(rs.table)
	rs.cgen = cgen
	rs.tailOff = dirHeaderSize
}

// refresh decodes shard si's latest directory publication. Called when
// the shard published since the last decode, on first touch, and to
// retry a corrupt latch after a new publication. The decode is
// incremental within a compaction epoch (only the tail entries parse); a
// publication carrying a different cgen — and any repair attempt —
// triggers a rebase, after which the fresh log decodes from its start.
// The log and the slot arrays it names arrive in one publication, so one
// pass decides: a state that fails to verify is corrupt, never a race.
func (r *Reader) refresh(si int) error {
	rs := &r.shards[si]
	d := rs.sh.dir.Load()
	repairing := rs.corrupt != nil
	if repairing && d == rs.dir {
		// The latch heals only through a later publication; rs.dir is
		// the poisoned one, so there is nothing new to rebase onto yet.
		return rs.corrupt
	}
	rs.dir = d
	// fail latches a protocol/decode error (see readerShard.corrupt).
	fail := func(err error) error {
		rs.corrupt = err
		return err
	}
	v := d.log
	if len(v) < dirHeaderSize {
		return fail(fmt.Errorf("%w: shard %d shorter than header (%d bytes)", ErrShardCorrupt, si, len(v)))
	}
	if cgen := binary.LittleEndian.Uint32(v); cgen != rs.cgen || repairing {
		// A compaction epoch — or a repair, which re-decodes from
		// scratch unconditionally because the incremental state may be
		// poisoned. The rebase also re-baselines the frontier:
		// monotonicity is a per-epoch invariant (DESIGN.md §9), and
		// insisting on it across a repair would leave a shard whose
		// reader once accepted garbage unrecoverable.
		rs.rebase(cgen)
	} else if len(v) < rs.tailOff {
		// Within one compaction epoch every publication extends the
		// last, so a log shorter than the decoded frontier means either
		// the directory protocol broke or — indistinguishably from this
		// side — the reader once accepted a plausible-garbage publication
		// that poisoned its baseline. Latching here could be permanent
		// (the broken baseline would condemn every future publication),
		// so re-decode the current publication from scratch instead: a
		// genuine log re-verifies fully against its slot arrays and the
		// reader heals; garbage fails the decode and latches through the
		// normal corrupt path. Counted as a repair.
		rs.rebase(cgen)
		repairing = true
	}
	// The publication's length delimits the log: every byte up to it
	// must parse as whole entries, so a truncated tail entry fails.
	off := rs.tailOff
	for off < len(v) {
		at := off
		tag, n := binary.Uvarint(v[off:])
		if n <= 0 || tag>>1 > math.MaxInt32 {
			return fail(fmt.Errorf("%w: shard %d entry corrupt at offset %d", ErrShardCorrupt, si, at))
		}
		off += n
		slot := int(tag >> 1)
		if tag&tombstoneFlag != 0 {
			// Only an add makes a slot live, so this also bounds the
			// slot by the slot array (see the add's check below).
			if slot >= len(rs.keys) || !rs.live[slot] {
				return fail(fmt.Errorf("%w: shard %d entry at offset %d tombstones dead slot %d", ErrShardCorrupt, si, at, slot))
			}
			delete(rs.table, rs.keys[slot])
			rs.live[slot] = false
			// The handle (if any) stays parked at the dead slot: it
			// still pins exactly incarnation gens[slot], so a rebase
			// that re-registers the slot at that generation reuses it,
			// and a true recycle displaces it below.
			continue
		}
		gen64, n := binary.Uvarint(v[off:])
		if n <= 0 || gen64 == 0 || gen64 > math.MaxUint32 {
			return fail(fmt.Errorf("%w: shard %d entry at offset %d has invalid generation", ErrShardCorrupt, si, at))
		}
		off += n
		gen := uint32(gen64)
		klen, n := binary.Uvarint(v[off:])
		// Compare in uint64 space: a klen that would overflow int must
		// not slip past the bound check.
		if n <= 0 || klen > uint64(len(v)-(off+n)) {
			return fail(fmt.Errorf("%w: shard %d entry at offset %d has a corrupt key length", ErrShardCorrupt, si, at))
		}
		off += n
		key := string(v[off : off+int(klen)])
		off += int(klen)
		// The whole entry parsed; now check what it names. The writer
		// publishes every add with slot arrays that hold its slot.
		if slot >= len(d.regs) {
			return fail(fmt.Errorf("%w: shard %d entry at offset %d names slot %d beyond the slot array (%d)",
				ErrShardCorrupt, si, at, slot, len(d.regs)))
		}
		// Extend the per-slot arrays up to the named slot: a compacted
		// log registers only live slots, so its slot indices may be
		// sparse (bounded by the check above).
		for slot >= len(rs.keys) {
			rs.keys = append(rs.keys, "")
			rs.gens = append(rs.gens, 0)
			rs.live = append(rs.live, false)
			rs.handles = append(rs.handles, nil)
		}
		if rs.live[slot] {
			return fail(fmt.Errorf("%w: shard %d entry at offset %d adds occupied slot %d", ErrShardCorrupt, si, at, slot))
		}
		if h := rs.handles[slot]; h != nil && rs.gens[slot] != gen {
			// The slot re-registers as a different incarnation while
			// this reader still holds the old one's handle. Stage the
			// displacement instead of retiring: if this decode fails
			// and a repair later proves the slot still carries the
			// staged generation, the handle is reinstated — never
			// re-acquired (registers hold exactly MaxReaders handles).
			rs.displaced = append(rs.displaced, displacedHandle{slot: slot, gen: rs.gens[slot], h: h})
			rs.handles[slot] = nil
		}
		rs.keys[slot] = key
		rs.gens[slot] = gen
		rs.live[slot] = true
		if _, dup := rs.table[key]; dup {
			return fail(fmt.Errorf("%w: shard %d entry at offset %d re-adds live key %q", ErrShardCorrupt, si, at, key))
		}
		rs.table[key] = slot
	}
	rs.tailOff = off
	// Every live binding must name the incarnation its own publication
	// holds at the slot: d.regs serves it, so a generation that
	// disagrees would hand the key another incarnation's register.
	for slot, g := range rs.gens {
		if rs.live[slot] && (slot >= len(d.gens) || d.gens[slot] != g) {
			return fail(fmt.Errorf("%w: shard %d slot %d decoded at generation %d disagrees with its publication",
				ErrShardCorrupt, si, slot, g))
		}
	}
	// Commit the staged displacements: a handle whose slot still
	// carries its generation (and grew no replacement) was displaced
	// by a decode that never committed — reinstate it. The rest pin
	// incarnations that are truly gone, so close them now rather
	// than at Reader.Close: their registers are never written again,
	// so views the owner still holds through them stay intact, and
	// a long-lived reader under delete/re-create churn would
	// otherwise keep every incarnation it ever observed. Closing
	// takes the old register's handle-table mutex, as creating a
	// handle on a key's first Get already does.
	for _, dh := range rs.displaced {
		if rs.gens[dh.slot] == dh.gen && rs.handles[dh.slot] == nil {
			rs.handles[dh.slot] = dh.h
		} else {
			r.closeHandle(dh.h)
			rs.retiredN++
			rs.retiredRMW += dh.h.ReadStats().RMW
		}
	}
	rs.displaced = rs.displaced[:0]
	if repairing {
		rs.corrupt = nil
		r.repairs++
	}
	r.refreshes++
	return nil
}

// Get returns a zero-copy view of key's freshest value, or ErrKeyNotFound.
// The view is valid until this handle's next Get/GetCopy/Snapshot of the
// same key or Close; Gets of other keys do not invalidate it, and neither
// does the key's deletion (the retired register is never written again).
// When neither the shard directory nor the key changed since the handle's
// last Get of it, the cost is two atomic loads — zero RMW instructions,
// zero decoding.
func (r *Reader) Get(key string) ([]byte, error) {
	v, _, err := r.GetFresh(key)
	return v, err
}

// GetFresh is Get plus a change report, the map-level counterpart of
// register.FreshViewer: changed is false exactly when the returned view
// is the same publication of the same key incarnation the handle's
// previous Get/GetFresh of key returned — so pollers skip decoding on
// directory churn that did not touch their key. The first read of a key
// (and of every re-created incarnation) reports changed == true.
func (r *Reader) GetFresh(key string) (v []byte, changed bool, err error) {
	v, _, _, changed, err = r.get(key)
	return v, changed, err
}

// Token names the publication a GetToken returned: the per-key handle
// that served it and that handle's acquisition count (see
// arc.Reader.Acquisitions). Tokens are comparable, and two equal tokens
// prove both Gets returned the same publication of the same key
// incarnation, whatever ran on the handle in between — Get, GetFresh,
// Snapshot or Watch through the same Reader. GetFresh's changed
// report proves no such thing: it compares against the previous read
// by any path, not against the read a caller remembers.
type Token struct {
	h   *arc.Reader
	acq uint64
	idx int
}

// Index is a dense position for the token's key incarnation within its
// Reader, slot*shards + shard: distinct live keys never share one, and
// it stays below shards times the largest slot count any shard reached.
func (t Token) Index() int { return t.idx }

// GetToken is Get plus a Token for the returned view: a caller that
// derived state from an earlier view may keep it when the tokens are
// equal. It costs what Get costs.
func (r *Reader) GetToken(key string) ([]byte, Token, error) {
	v, h, idx, _, err := r.get(key)
	if err != nil {
		return nil, Token{}, err
	}
	return v, Token{h: h, acq: h.Acquisitions(), idx: idx}, nil
}

// get is GetFresh's body, also returning the per-key handle that served
// the view and the key's dense index (see Token).
func (r *Reader) get(key string) (v []byte, h *arc.Reader, idx int, changed bool, err error) {
	if r.closed {
		return nil, nil, 0, false, register.ErrReaderClosed
	}
	si := r.m.ShardOf(key)
	rs := &r.shards[si]
	r.ops++
	// One extra nil check on the hot path, no RMW: a corrupt shard
	// routes through refresh, which returns the latch — or repairs it,
	// if the directory has published something new to rebase onto.
	dirFresh := rs.current()
	if !dirFresh {
		if err := r.refresh(si); err != nil {
			return nil, nil, 0, false, err
		}
	}
	i, ok := rs.table[key]
	if !ok {
		r.misses++
		if dirFresh {
			r.fastPath++ // one load, no RMW: the directory probe
		}
		return nil, nil, 0, false, ErrKeyNotFound
	}
	h = rs.handles[i]
	if h == nil {
		// First read of this incarnation through this handle: a change
		// by definition (tombstone processing nils replaced handles).
		h, err = rs.dir.regs[i].NewReaderHandle()
		if err != nil {
			return nil, nil, 0, false, fmt.Errorf("regmap: key %q handle: %w", key, err)
		}
		rs.handles[i] = h
		changed = true
	}
	// Only a changed view executed RMW (ARC's slow path): the fast path
	// reads the handle's counters and adds nothing to the tally.
	rmw := h.ReadStats().RMW
	v, vchanged, err := h.ViewFresh()
	if err != nil {
		return nil, nil, 0, false, err
	}
	if vchanged {
		r.rmw += h.ReadStats().RMW - rmw
	} else if dirFresh {
		r.fastPath++ // two loads, no RMW: the fully gated hot path
	}
	return v, h, i*len(r.shards) + si, changed || vchanged, nil
}

// GetCopy copies key's freshest value into dst and returns its length
// (register.ErrBufferTooSmall with the required length if dst cannot
// hold it).
func (r *Reader) GetCopy(key string, dst []byte) (int, error) {
	v, err := r.Get(key)
	if err != nil {
		return 0, err
	}
	if len(dst) < len(v) {
		return len(v), register.ErrBufferTooSmall
	}
	return copy(dst, v), nil
}

// Fresh reports whether the handle's last Get of key would return the
// same publication again — the map-level freshness probe: true only when
// the shard directory is unchanged, the key is known, and its register
// still holds the handle's slot. A key this handle never Get was not
// read, so it reports false (matching register.Reader.Fresh).
func (r *Reader) Fresh(key string) bool {
	if r.closed {
		return false
	}
	rs := &r.shards[r.m.ShardOf(key)]
	if !rs.current() {
		return false
	}
	i, ok := rs.table[key]
	if !ok {
		return false
	}
	h := rs.handles[i]
	return h != nil && h.Fresh()
}

// Keys returns the map's live keys (shard by shard, slot order within a
// shard; no cross-shard snapshot is implied — each shard's listing is
// individually atomic; use Snapshot for a map-wide cut). The slice is
// the caller's.
func (r *Reader) Keys() ([]string, error) {
	if r.closed {
		return nil, register.ErrReaderClosed
	}
	n := 0
	for si := range r.shards {
		rs := &r.shards[si]
		if !rs.current() {
			if err := r.refresh(si); err != nil {
				return nil, err
			}
		}
		n += len(rs.table)
	}
	out := make([]string, 0, n)
	for si := range r.shards {
		rs := &r.shards[si]
		for slot, key := range rs.keys {
			if rs.live[slot] {
				out = append(out, key)
			}
		}
	}
	return out, nil
}

// Len reports the number of live keys visible to this handle (refreshing
// each shard's directory view first).
func (r *Reader) Len() (int, error) {
	if r.closed {
		return 0, register.ErrReaderClosed
	}
	n := 0
	for si := range r.shards {
		rs := &r.shards[si]
		if !rs.current() {
			if err := r.refresh(si); err != nil {
				return 0, err
			}
		}
		n += len(rs.table)
	}
	return n, nil
}

// Snapshot returns a point-in-time copy of every live key and its value
// — atomic across all keys and shards: there is an instant during the
// call at which the map's state was exactly the returned one (the
// linearization argument is in DESIGN.md §7). Values are copies, owned
// by the caller; the map they live in is freshly allocated.
//
// Snapshot reads through the handle's cached per-key registers, so it
// counts as a Get of every live key: views previously returned by Get
// may be invalidated. It executes no RMW instructions; at steady state
// (no concurrent publications) every per-key read is ARC's one-load
// fast path and the collect completes in one pass. A shard is
// re-collected only when its publish counter is observed to move, so
// retries are bounded by the publications that actually race the call.
func (r *Reader) Snapshot() (map[string][]byte, error) {
	parts, n, err := r.SnapshotParts()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, n)
	for _, p := range parts {
		for k, v := range p {
			out[k] = v
		}
	}
	return out, nil
}

// SnapshotParts is Snapshot before the merge: one certified part per
// shard (the parts' keys are disjoint) and their total entry count, for
// a caller that builds its own map from them. The parts and their
// values are the caller's.
func (r *Reader) SnapshotParts() ([]map[string][]byte, int, error) {
	if r.closed {
		return nil, 0, register.ErrReaderClosed
	}
	nsh := len(r.m.shards)
	parts := make([]map[string][]byte, nsh)
	epochs := make([]uint64, nsh)
	pending := make([]int, nsh)
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		for _, si := range pending {
			part, ep, err := r.collectShard(si)
			if err != nil {
				return nil, 0, err
			}
			parts[si], epochs[si] = part, ep
		}
		// Global verification pass: every shard whose publish counter
		// still matches its collect was unchanged from its collect
		// through this pass — so a pass with no movement certifies all
		// shards simultaneously.
		pending = pending[:0]
		for si, sh := range r.m.shards {
			if sh.pubStarted.Load() != epochs[si] {
				pending = append(pending, si)
				r.snapRetries++
			}
		}
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	r.snapshots++
	return parts, total, nil
}

// collectShard performs one validated collect of shard si: a counter
// window (started == done before, started unchanged after) brackets a
// full read of the shard's live keys, certifying the part as the shard's
// exact state at the window's opening. Retries consume observed
// publications; like a seqlock reader, the collect waits out a publish
// caught in flight on this shard (the read path proper never does).
func (r *Reader) collectShard(si int) (map[string][]byte, uint64, error) {
	sh := r.m.shards[si]
	rs := &r.shards[si]
	for {
		started := sh.pubStarted.Load()
		if started != sh.pubDone.Load() {
			r.snapRetries++
			runtime.Gosched()
			continue
		}
		if !rs.current() {
			if err := r.refresh(si); err != nil {
				return nil, 0, err
			}
		}
		part := make(map[string][]byte, len(rs.table))
		for key, slot := range rs.table {
			h := rs.handles[slot]
			if h == nil {
				var err error
				h, err = rs.dir.regs[slot].NewReaderHandle()
				if err != nil {
					return nil, 0, fmt.Errorf("regmap: key %q handle: %w", key, err)
				}
				rs.handles[slot] = h
			}
			rmw := h.ReadStats().RMW
			v, vchanged, err := h.ViewFresh()
			if err != nil {
				return nil, 0, err
			}
			if vchanged {
				r.rmw += h.ReadStats().RMW - rmw
			}
			part[key] = append([]byte(nil), v...)
		}
		if sh.pubStarted.Load() == started {
			return part, started, nil
		}
		r.snapRetries++
	}
}

// Stats reports the handle's read counters in O(1): the RMW total is
// tallied as the handles execute it, not summed over them here. Collect
// after the owning goroutine has quiesced.
func (r *Reader) Stats() ReadStats {
	return ReadStats{
		ReadStats:       register.ReadStats{Ops: r.ops, FastPath: r.fastPath, RMW: r.rmw},
		Misses:          r.misses,
		DirRefreshes:    r.refreshes,
		Snapshots:       r.snapshots,
		SnapshotRetries: r.snapRetries,
		Repairs:         r.repairs,
	}
}

// closeHandle closes a per-key handle, tallying the RMW of the slot
// release its Close executes.
func (r *Reader) closeHandle(h *arc.Reader) {
	rmw := h.ReadStats().RMW
	h.Close()
	r.rmw += h.ReadStats().RMW - rmw
}

// Close releases the handle: every per-key handle (live and staged) is
// returned to its register, and the map-level capacity is freed.
func (r *Reader) Close() error {
	if r.closed {
		return register.ErrReaderClosed
	}
	r.closed = true
	for si := range r.shards {
		rs := &r.shards[si]
		for _, h := range rs.handles {
			if h != nil {
				r.closeHandle(h)
			}
		}
		for _, d := range rs.displaced {
			r.closeHandle(d.h)
		}
	}
	if r.laneFree != nil {
		r.laneFree()
	}
	r.m.mu.Lock()
	r.m.liveReaders--
	r.m.mu.Unlock()
	return nil
}

// TraceRing returns the handle's flight-recorder lane, nil when the map
// is untraced or the lane pool was exhausted at NewReader. Owner
// goroutine only — downstream single-writer stages (the HTTP layer's
// SSE flush) record into it.
func (r *Reader) TraceRing() *trace.Ring { return r.lane }

// LastWake returns the origin publish stamp of the most recent waking
// park of the watch iteration running on this handle, 0 when none is
// running or it has not been woken by a stamped wake. Owner goroutine
// only — it joins downstream stages to the in-flight span.
func (r *Reader) LastWake() int64 {
	if r.watchWS == nil {
		return 0
	}
	return r.watchWS.LastWake()
}

// LiveReaders reports the number of open Reader handles.
func (m *Map) LiveReaders() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveReaders
}
