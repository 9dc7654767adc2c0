package arcreg

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"runtime"

	"arcreg/internal/regmap"
)

// ErrKeyNotFound is returned by MapOfReader.Get for a key no Set created
// (or a deleted one), and by MapOf.Delete for an absent key.
var ErrKeyNotFound = regmap.ErrKeyNotFound

// ErrDirectoryFull is returned by MapOf.Set when a shard's live keys
// alone exceed the directory ceiling. Mere churn (deleted keys bloating
// the log) never surfaces it: appends compact the shard automatically
// when the log outgrows its live set, so ErrDirectoryFull means the
// map's live population is genuinely too large for the directory, not
// that it has been running too long. Match with errors.Is — the error
// is wrapped with the shard and occupancy context.
var ErrDirectoryFull = regmap.ErrDirectoryFull

// ErrShardCorrupt is returned by MapOfReader operations when a reader's
// decode of a shard directory fails validation: the published log is
// damaged (a publication is one pointer store, so it is never torn, and
// the map's own writer never publishes a damaged one). The latch is
// per-reader and sticky until that shard's
// directory publishes again: a Set that creates a key, a Delete, or a
// MapOf.Compact repairs the reader, which rebases onto the published
// log and resumes. A Set of an existing key publishes only that key's
// value, so it leaves the latch in place. Parked Watch/WatchAll
// iterators observe the episode as one (zero, ErrShardCorrupt) event
// and continue after repair. Match with errors.Is.
var ErrShardCorrupt = regmap.ErrShardCorrupt

// MapConfig parametrizes a byte map built by NewByteMap. NewMap takes
// the same parameters as functional options (WithShards, WithReaders,
// WithMaxValueSize, WithDynamicValues, WithTrace).
type MapConfig struct {
	// Shards is the number of key partitions, rounded up to a power of
	// two (default 8). Writes to different shards may run concurrently;
	// see MapOf.Set.
	Shards int
	// MaxReaders is N, the number of concurrently live MapOfReader
	// handles.
	MaxReaders int
	// MaxValueSize bounds values in bytes (default 4096).
	MaxValueSize int
	// DynamicValues makes every Set allocate an exact-size buffer (the
	// paper's §3.3 variant) instead of copying into a MaxValueSize slot
	// buffer. A key without it holds one such buffer per register slot
	// it has published — one for a key written once, at most the versions
	// readers hold at once plus two, never MaxReaders+2 up front — so
	// DynamicValues is the right choice for maps with many keys holding
	// values much smaller than MaxValueSize.
	DynamicValues bool
	// Trace enables the always-on flight recorder (see WithTrace):
	// per-domain event rings threading publish→deliver spans, with zero
	// RMW and zero allocation added to the instrumented hot paths.
	Trace bool
}

// MapReadStats counts a MapOfReader's work: Ops (Gets), FastPath (Gets
// served with zero RMW instructions), RMW (executed by the per-key
// handles; a directory refresh executes none), plus Misses,
// DirRefreshes, Snapshots and SnapshotRetries.
type MapReadStats = regmap.ReadStats

// MapWriteStats counts the map writer side's work: value publishes,
// directory publications (Directory.Ops; a publication is one pointer
// store, so the other Directory counters read 0), keys created and
// tombstones published.
type MapWriteStats = regmap.WriteStats

// MapOf is a sharded, keyed store of T values — the keyed counterpart
// of Reg[T]. Every key is its own wait-free ARC (1,N) register and
// every shard publishes its key directory, with the slot arrays it
// names, by one atomic pointer store per change. Key lookup, key
// enumeration and value reads are wait-free loads and zero-copy
// register reads; adding or deleting a key is one directory append and
// one publication by that shard's writer, amortized O(1) however many
// keys the shard holds. A Get of an unchanged hot key costs two
// atomic loads — zero RMW instructions — regardless of map size, and
// Snapshot yields an atomic point-in-time view of all live keys (see
// internal/regmap for the protocol). Values are stored encoded by the
// map's Codec; encoding and decoding run outside the registers'
// critical operations, so they may be arbitrarily expensive without
// affecting other threads' progress.
type MapOf[T any] struct {
	m *regmap.Map
	c Codec[T]
}

// Map is the byte map: a MapOf over the Raw codec, whose Set stores the
// caller's bytes and whose reads return them zero-copy. NewByteMap and
// NewMap[[]byte](WithCodec(Raw())) build one. MapOf.Map returns a Raw
// view of any map (the same shards, so a Set through it is a Set of
// the typed map), and MapOfReader.Reader a Raw view of any handle,
// which shares the typed handle's per-key state and its Close.
type Map = MapOf[[]byte]

// NewByteMap constructs a byte map. NewMap[[]byte](WithCodec(Raw()),
// ...) builds the same map from options.
func NewByteMap(cfg MapConfig) (*Map, error) {
	return newMap(Raw(), regmap.Config{
		Shards:        cfg.Shards,
		MaxReaders:    cfg.MaxReaders,
		MaxValueSize:  cfg.MaxValueSize,
		DynamicValues: cfg.DynamicValues,
		Trace:         cfg.Trace,
	})
}

// NewMap constructs a typed keyed store — the map-scale counterpart of
// New, sharing its option set. The defaults are 8 shards, the JSON
// codec, N = GOMAXPROCS readers and 4KB values:
//
//	m, err := arcreg.NewMap[Endpoint](
//		arcreg.WithShards(16),
//		arcreg.WithReaders(64),
//		arcreg.WithMaxValueSize(1<<10),
//		arcreg.WithCodec(arcreg.Binary[Endpoint]()),
//	)
//
// Register-only options (WithAlgorithm, WithWriters, WithInitial,
// WithInitialBytes) are rejected: the map is built from ARC registers
// and is single-writer per shard by construction.
func NewMap[T any](opts ...Option) (*MapOf[T], error) {
	cfg := config{alg: ARC, writers: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	switch {
	case cfg.alg != ARC:
		return nil, fmt.Errorf("arcreg: NewMap is built from ARC registers; WithAlgorithm(%s) does not apply", cfg.alg)
	case cfg.writers > 1:
		return nil, fmt.Errorf("arcreg: NewMap(WithWriters(%d)): the map is single-writer per shard; use WithShards and partition keys by ShardOf", cfg.writers)
	case cfg.hasInitial || cfg.initialRaw != nil:
		return nil, fmt.Errorf("arcreg: WithInitial/WithInitialBytes do not apply to NewMap (a key's first Set is its initial value)")
	}
	cd := JSON[T]()
	if cfg.codec != nil {
		var ok bool
		if cd, ok = cfg.codec.(Codec[T]); !ok {
			return nil, fmt.Errorf("arcreg: WithCodec value is a %T, not a Codec[%T]", cfg.codec, *new(T))
		}
	}
	if cfg.readers == 0 {
		cfg.readers = runtime.GOMAXPROCS(0)
	}
	return newMap(cd, regmap.Config{
		Shards:        cfg.shards,
		MaxReaders:    cfg.readers,
		MaxValueSize:  cfg.maxValueSize,
		DynamicValues: cfg.dynamicValues,
		Trace:         cfg.trace,
	})
}

// newMap builds the regmap behind a MapOf with codec c.
func newMap[T any](c Codec[T], cfg regmap.Config) (*MapOf[T], error) {
	m, err := regmap.New(cfg)
	if err != nil {
		return nil, err
	}
	return &MapOf[T]{m: m, c: c}, nil
}

// Map returns the byte view of the map: the same shards under the Raw
// codec, so its Set stores bytes that must be an encoding under
// t.Codec() for typed readers to decode them.
func (t *MapOf[T]) Map() *Map { return &Map{m: t.m, c: Raw()} }

// Set encodes v and publishes it under key, creating (or re-creating)
// the key if needed. Each shard is single-writer: call Set and Delete
// from one goroutine, or partition keys by ShardOf to write shards in
// parallel.
func (t *MapOf[T]) Set(key string, v T) error {
	blob, err := t.c.Encode(v)
	if err != nil {
		return fmt.Errorf("arcreg: encode %q: %w", key, err)
	}
	return t.m.Set(key, blob)
}

// Delete removes key by publishing a tombstone in its shard's
// directory, recycling the key's slot for a later creation; a
// re-created key gets a fresh value register, so deleted values never
// resurrect. Returns ErrKeyNotFound for an absent key. Same
// single-writer-per-shard contract as Set. Concurrent Gets linearize
// before the delete (returning the last value) or after it (missing);
// views readers already hold stay valid. Each Delete allocates the
// shard's new directory state (72 B).
func (t *MapOf[T]) Delete(key string) error { return t.m.Delete(key) }

// Len reports the number of live keys; safe concurrently with Sets and
// Deletes (no cross-shard atomicity implied — use Snapshot for that).
func (t *MapOf[T]) Len() int { return t.m.Len() }

// Shards reports the shard count.
func (t *MapOf[T]) Shards() int { return t.m.Shards() }

// ShardOf reports which shard key routes to (deterministic FNV-1a
// routing, stable across maps with equal shard counts).
func (t *MapOf[T]) ShardOf(key string) int { return t.m.ShardOf(key) }

// MaxReaders reports the MapOfReader capacity N.
func (t *MapOf[T]) MaxReaders() int { return t.m.MaxReaders() }

// MaxValueSize reports the bound on a value's encoding, in bytes.
func (t *MapOf[T]) MaxValueSize() int { return t.m.MaxValueSize() }

// Caps reports the map's capability set — the per-key ARC registers'
// surface: zero-copy views, freshness probing, wait-free reads and
// writes. Snapshot is the one operation with a weaker progress property
// (retries on observed concurrent publications; see
// MapOfReader.Snapshot).
func (t *MapOf[T]) Caps() Caps {
	return Caps{
		ZeroCopyView:  true,
		FreshProbe:    true,
		WaitFreeRead:  true,
		WaitFreeWrite: true,
	}
}

// WriteStats reports aggregate publish-side counters. Collect at
// quiescence.
func (t *MapOf[T]) WriteStats() MapWriteStats { return t.m.WriteStats() }

// Stats returns the map's observability tree: whole-map totals (live
// keys, publications, directory bytes, compactions), a "watchers"
// child aggregating the backpressure ledgers of live Watch/WatchAll
// iterators (lag, conflation, wakeup latency), and one child per
// shard. Each shard node is internally consistent even while that
// shard compacts — its counters are collected inside a validated
// publication window, so cgen always equals compactions within a node
// (cross-shard totals are per-shard instants, like Len). Collecting
// the tree only loads: no RMW on any register path, nothing added to
// writer cost. Safe to poll continuously (see Observe).
func (t *MapOf[T]) Stats() Stats { return t.m.Stats() }

// Tracer returns the map's flight recorder, nil unless the map was
// built with WithTrace (or MapConfig.Trace). Walk it for reconstructed
// publish→deliver spans (Spans, WriteJSON, WriteText) and per-stage
// latency breakdowns (Breakdown, Stats) — all walker-side: snapshots
// are seqlock-validated against the live rings, and the recording
// domains never block or retry for a walker.
func (t *MapOf[T]) Tracer() *Tracer { return t.m.Tracer() }

// Compact rewrites every shard's directory log down to its live keys
// and publishes the result as a new compaction epoch. Appends already
// compact automatically when a shard's log outgrows its live set, so
// routine use never needs Compact; call it to reclaim directory memory
// eagerly (after bulk deletes), or to force readers latched on a
// corrupt shard to repair without waiting for the next directory
// publication. Same single-writer-per-shard contract as Set and
// Delete. Readers rebase onto the new epoch on their next operation;
// views and watch subscriptions they hold survive the bump (see
// DESIGN.md §9).
func (t *MapOf[T]) Compact() error { return t.m.Compact() }

// Codec reports the encoding in use.
func (t *MapOf[T]) Codec() Codec[T] { return t.c }

// NewReader allocates a read endpoint (one per goroutine, up to
// MaxReaders).
func (t *MapOf[T]) NewReader() (*MapOfReader[T], error) {
	r, err := t.m.NewReader()
	if err != nil {
		return nil, err
	}
	return &MapOfReader[T]{
		r:          r,
		c:          t.c,
		decodedCap: decodeCacheCap[T](),
	}, nil
}

// MapOfReader is a per-goroutine read endpoint over the whole map. It
// caches, per shard, the decoded directory and the per-key register
// handles, so repeated Gets of unchanged keys are two atomic loads, and
// it serves decoding reads, byte copies, freshness probes, enumeration,
// the atomic snapshot, and the Watch and WatchAll change iterators.
type MapOfReader[T any] struct {
	r *regmap.Reader
	c Codec[T]
	// decoded is Get's direct-mapped cache of earlier decodes, at most
	// one entry per key: a key's dense token index picks its entry
	// (modulo the capacity once the array has grown to decodedCap, a
	// power of two). decodedCap is 0 when T is not copy-safe, and Get
	// then decodes every time.
	decoded    []decodedEntry[T]
	decodedCap int
}

// decodedEntry is one cached decode: v decoded from the publication tok
// names.
type decodedEntry[T any] struct {
	tok regmap.Token
	v   T
}

// Bounds on a typed reader's decode cache: at most this many entries,
// and at most this many bytes of entry array (fewer entries for large T).
const (
	decodeCacheEntries = 4096
	decodeCacheBytes   = 512 << 10
)

// decodeCacheCap is the decode-cache capacity for T: a power of two within
// both bounds, or 0 when copying a T would share mutable memory.
func decodeCacheCap[T any]() int {
	if !copySafe(reflect.TypeFor[T]()) {
		return 0
	}
	n := decodeCacheEntries
	for n > 0 && uintptr(n)*reflect.TypeFor[decodedEntry[T]]().Size() > decodeCacheBytes {
		n /= 2
	}
	return n
}

// copySafe reports whether a copy of a t value shares no mutable memory
// with the original: bools, numbers and strings (immutable), and arrays
// and structs built only from those. Anything holding a pointer, slice,
// map, chan, func, interface or unsafe pointer is not.
func copySafe(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return copySafe(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !copySafe(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// Get returns the freshest value under key, or ErrKeyNotFound, decoding
// straight from the register slot with no intermediate copy. Under Raw
// the result is that zero-copy view itself: it is valid until this
// handle's next Get, ReadBytes or Snapshot of the same key or Close
// (Gets of other keys and the key's deletion do not invalidate it), and
// callers must not modify it. For a copy-safe T — bools, numbers,
// strings, and arrays and structs of only those — Get decodes once per
// publication: while the key's register has kept serving this handle
// the publication an earlier Get decoded, Get returns that decode again
// (so Decode must be pure; see Codec). Any other T, such as one holding
// a pointer, slice or map, decodes on every Get. The handle keeps at
// most one decode per key and at most 4,096 in all, within 512 KiB;
// Close drops them.
func (r *MapOfReader[T]) Get(key string) (T, error) {
	if r.decodedCap == 0 {
		v, err := r.r.Get(key)
		if err != nil {
			var zero T
			return zero, err
		}
		return r.c.Decode(v)
	}
	v, tok, err := r.r.GetToken(key)
	if err != nil {
		var zero T
		return zero, err
	}
	e := r.entry(tok.Index())
	if e.tok != tok {
		t, err := r.c.Decode(v)
		if err != nil {
			return t, err
		}
		*e = decodedEntry[T]{tok: tok, v: t}
	}
	return e.v, nil
}

// entry returns the decode-cache entry for dense index i. Below the cap
// the array doubles until it covers i, so an entry's position is its
// index and old entries keep their places.
func (r *MapOfReader[T]) entry(i int) *decodedEntry[T] {
	if n := len(r.decoded); i >= n && n < r.decodedCap {
		n = max(2*n, 16)
		for n <= i {
			n *= 2
		}
		grown := make([]decodedEntry[T], min(n, r.decodedCap))
		copy(grown, r.decoded)
		r.decoded = grown
	}
	return &r.decoded[i&(len(r.decoded)-1)]
}

// ReadBytes copies key's freshest encoded value into dst, bypassing the
// codec, and returns its length (ErrBufferTooSmall with the required
// length if dst cannot hold it).
func (r *MapOfReader[T]) ReadBytes(key string, dst []byte) (int, error) {
	return r.r.GetCopy(key, dst)
}

// Fresh reports whether the handle's last Get of key is still current —
// one to two atomic loads, no RMW; false for keys this handle never Get
// and for deleted keys.
func (r *MapOfReader[T]) Fresh(key string) bool { return r.r.Fresh(key) }

// Keys lists the map's live keys (each shard's listing individually
// atomic; no cross-shard snapshot implied — use Snapshot for that).
func (r *MapOfReader[T]) Keys() ([]string, error) { return r.r.Keys() }

// Len reports the number of live keys visible to this handle.
func (r *MapOfReader[T]) Len() (int, error) { return r.r.Len() }

// Snapshot returns an atomic point-in-time copy of every live key and
// its value, decoded: there is an instant during the call at which the
// map's state was exactly the returned one, across all shards
// (DESIGN.md §7 gives the linearization argument). Values are owned by
// the caller; under Raw they are copies of the stored bytes.
//
// Snapshot executes no RMW instructions and, at steady state, reads
// every key through ARC's one-load fast path in a single pass; a shard
// is re-collected only when a concurrent publication is observed.
// Snapshot counts as a Get of every live key, so views previously
// returned by Get may be invalidated.
func (r *MapOfReader[T]) Snapshot() (map[string]T, error) {
	parts, n, err := r.r.SnapshotParts()
	if err != nil {
		return nil, err
	}
	out := make(map[string]T, n)
	for _, part := range parts {
		for k, raw := range part {
			v, err := r.c.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("arcreg: decode %q: %w", k, err)
			}
			out[k] = v
		}
	}
	return out, nil
}

// ReadStats reports the handle's counters in constant time, however many
// keys the handle has read; collect after the owning goroutine has
// quiesced.
func (r *MapOfReader[T]) ReadStats() MapReadStats { return r.r.Stats() }

// Watch returns an iterator over one key's publications, decoded: the
// value current when iteration starts (or ErrKeyNotFound if absent),
// then every change, parking between changes — an idle watcher costs
// nothing, and sibling-key traffic on the shard does not wake it.
// Under Raw the yielded values are views, valid until the next step.
// Deletions are part of the stream: a delete yields (zero,
// ErrKeyNotFound) once and the watch continues, so a later re-creation
// yields the fresh incarnation's value (never the deleted bytes); break
// on the miss if deletion should end the subscription. A corrupt shard
// is an episode, not an end: it yields (zero, ErrShardCorrupt) once and
// the watch resumes with the repaired value (see ErrShardCorrupt).
// Delivery is at-least-once per publication with latest-value
// conflation (a slow consumer sees fewer, newer values and never blocks
// the writer). The iterator ends on consumer break, ctx done (yielding
// ctx's error), a decode error, or a terminal register error. Watch
// owns the handle while it runs.
func (r *MapOfReader[T]) Watch(ctx context.Context, key string) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		for raw, err := range r.r.Watch(ctx, key) {
			if err != nil {
				// A missing key and a corrupt shard are episodes the
				// stream continues past; any other error ends it.
				if !yield(zero, err) || !errors.Is(err, ErrKeyNotFound) && !errors.Is(err, ErrShardCorrupt) {
					return
				}
				continue
			}
			v, derr := r.c.Decode(raw)
			if !yield(v, derr) || derr != nil {
				return
			}
		}
	}
}

// MapDeltaOf is one WatchAll event: created/changed keys decoded to T,
// deleted keys by name, Full marking the initial whole-map snapshot.
type MapDeltaOf[T any] struct {
	// Values holds created keys and keys whose value changed, decoded.
	// On the first event it is the complete snapshot.
	Values map[string]T
	// Deleted lists keys present in the previous event and absent now,
	// sorted.
	Deleted []string
	// Full marks the first event (Values is the whole map).
	Full bool
}

// WatchAll returns an iterator over whole-map changes as a decoded
// snapshot-delta stream: the first event is a full linearizable
// Snapshot (MapDeltaOf.Full), every later event the keys that changed
// and the keys that disappeared between consecutive snapshots. Each
// event derives from one atomic Snapshot, so applying the deltas in
// order reconstructs exactly the certified sequence of map states.
// Between events the watcher parks on the map-level gate. A corrupt
// shard yields (zero, ErrShardCorrupt) once per episode and the stream
// resumes after repair. The iterator ends on consumer break, ctx done
// (yielding ctx's error), a decode error, or a terminal register error.
// WatchAll owns the handle while it runs; like Snapshot, each collect
// counts as a Get of every live key.
func (r *MapOfReader[T]) WatchAll(ctx context.Context) iter.Seq2[MapDeltaOf[T], error] {
	return func(yield func(MapDeltaOf[T], error) bool) {
		for d, err := range r.r.WatchAll(ctx) {
			if err != nil {
				if !yield(MapDeltaOf[T]{}, err) || !errors.Is(err, ErrShardCorrupt) {
					return
				}
				continue
			}
			out := MapDeltaOf[T]{
				Values:  make(map[string]T, len(d.Values)),
				Deleted: d.Deleted,
				Full:    d.Full,
			}
			for k, raw := range d.Values {
				v, derr := r.c.Decode(raw)
				if derr != nil {
					yield(MapDeltaOf[T]{}, fmt.Errorf("arcreg: decode %q: %w", k, derr))
					return
				}
				out.Values[k] = v
			}
			if !yield(out, nil) {
				return
			}
		}
	}
}

// Reader returns the byte view of this handle: the same regmap handle
// under the Raw codec, sharing its per-key state and its Close.
func (r *MapOfReader[T]) Reader() *MapOfReader[[]byte] {
	return &MapOfReader[[]byte]{r: r.r, c: Raw()}
}

// Close releases the handle, every register handle it cached and its
// cached decodes.
func (r *MapOfReader[T]) Close() error {
	r.decoded = nil
	return r.r.Close()
}
