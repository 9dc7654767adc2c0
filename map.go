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

// ErrKeyNotFound is returned by MapReader.Get for a key no Set created
// (or a deleted one), and by Map.Delete for an absent key.
var ErrKeyNotFound = regmap.ErrKeyNotFound

// ErrDirectoryFull is returned by Map.Set when a shard's live keys
// alone exceed the directory ceiling. Mere churn (deleted keys bloating
// the log) never surfaces it: appends compact the shard automatically
// when the log outgrows its live set, so ErrDirectoryFull means the
// map's live population is genuinely too large for the directory, not
// that it has been running too long. Match with errors.Is — the error
// is wrapped with the shard and occupancy context.
var ErrDirectoryFull = regmap.ErrDirectoryFull

// ErrShardCorrupt is returned by MapReader operations when a reader's
// decode of a shard directory fails validation (torn or damaged
// publication). The latch is per-reader and sticky only while the
// directory is quiet: any later genuine publication — an ordinary Set
// or Delete on that shard, or a Map.Compact — repairs the reader, which
// rebases onto the published log and resumes. Parked Watch/WatchAll
// iterators observe the episode as one (zero, ErrShardCorrupt) event
// and continue after repair. Match with errors.Is.
var ErrShardCorrupt = regmap.ErrShardCorrupt

// MapConfig parametrizes a byte-level Map (see NewByteMap). The typed
// entry point NewMap takes the same parameters as functional options
// (WithShards, WithReaders, WithMaxValueSize, WithDynamicValues).
type MapConfig struct {
	// Shards is the number of key partitions, rounded up to a power of
	// two (default 8). Writes to different shards may run concurrently;
	// see Map.Set.
	Shards int
	// MaxReaders is N, the number of concurrently live MapReader
	// handles.
	MaxReaders int
	// MaxValueSize bounds values in bytes (default 4096).
	MaxValueSize int
	// DynamicValues makes every Set allocate an exact-size buffer (the
	// paper's §3.3 variant) instead of pre-allocating MaxReaders+2
	// MaxValueSize buffers per key — the right choice for maps with many
	// keys holding small values.
	DynamicValues bool
	// Trace enables the always-on flight recorder (see WithTrace):
	// per-domain event rings threading publish→deliver spans, with zero
	// RMW and zero allocation added to the instrumented hot paths.
	Trace bool
}

// MapReadStats counts a MapReader's work: Ops (Gets), FastPath (Gets
// served with zero RMW instructions), RMW (executed by the directory and
// per-key handles), plus Misses, DirRefreshes, Snapshots and
// SnapshotRetries.
type MapReadStats = regmap.ReadStats

// MapWriteStats counts the map writer side's work: value publishes,
// directory publications, keys created and tombstones published.
type MapWriteStats = regmap.WriteStats

// Map is a sharded, keyed store where every key is its own wait-free ARC
// (1,N) register and every shard publishes its key directory through a
// directory ARC register. Key lookup, key enumeration and value reads
// are wait-free zero-copy register reads; adding or deleting a key is
// one directory append and re-publish by that shard's writer, amortized
// O(1) however many keys the shard holds. A Get of an unchanged
// hot key costs two atomic loads — zero RMW instructions — regardless of
// map size, and Snapshot yields an atomic point-in-time view of all live
// keys (see internal/regmap for the protocol).
type Map struct {
	m *regmap.Map
}

// NewByteMap constructs a byte-level Map. Most callers want the typed
// NewMap instead; NewByteMap is the raw-bytes path, like
// New[[]byte](WithCodec(Raw())) for a single register.
func NewByteMap(cfg MapConfig) (*Map, error) {
	m, err := regmap.New(regmap.Config{
		Shards:        cfg.Shards,
		MaxReaders:    cfg.MaxReaders,
		MaxValueSize:  cfg.MaxValueSize,
		DynamicValues: cfg.DynamicValues,
		Trace:         cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Map{m: m}, nil
}

// Set publishes val under key, creating (or re-creating) the key if
// needed. Each shard is single-writer: call Set and Delete from one
// goroutine, or partition keys by ShardOf to write shards in parallel.
func (m *Map) Set(key string, val []byte) error { return m.m.Set(key, val) }

// Delete removes key by publishing a tombstone through its shard's
// directory register, recycling the key's slot for a later creation; a
// re-created key gets a fresh value register, so deleted values never
// resurrect. Returns ErrKeyNotFound for an absent key. Same
// single-writer-per-shard contract as Set. Concurrent Gets linearize
// before the delete (returning the last value) or after it (missing);
// views readers already hold stay valid.
func (m *Map) Delete(key string) error { return m.m.Delete(key) }

// ShardOf reports which shard key routes to (deterministic FNV-1a
// routing, stable across Map instances with equal shard counts).
func (m *Map) ShardOf(key string) int { return m.m.ShardOf(key) }

// Shards reports the shard count.
func (m *Map) Shards() int { return m.m.Shards() }

// Len reports the number of live keys; safe concurrently with Sets and
// Deletes (no cross-shard atomicity implied — use Snapshot for that).
func (m *Map) Len() int { return m.m.Len() }

// MaxReaders reports the MapReader capacity N.
func (m *Map) MaxReaders() int { return m.m.MaxReaders() }

// MaxValueSize reports the per-value byte bound.
func (m *Map) MaxValueSize() int { return m.m.MaxValueSize() }

// Caps reports the map's capability set — the per-key ARC registers'
// full surface: zero-copy views, freshness probing, stats on both
// sides, wait-free reads and writes. Snapshot is the one operation with
// a weaker progress property (retries on observed concurrent
// publications; see MapReader.Snapshot).
func (m *Map) Caps() Caps {
	return Caps{
		ZeroCopyView:  true,
		FreshProbe:    true,
		ReadStats:     true,
		WriteStats:    true,
		WaitFreeRead:  true,
		WaitFreeWrite: true,
	}
}

// WriteStats reports aggregate publish-side counters. Collect at
// quiescence.
func (m *Map) WriteStats() MapWriteStats { return m.m.WriteStats() }

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
func (m *Map) Stats() Stats { return m.m.Stats() }

// Tracer returns the map's flight recorder, nil unless the map was
// built with WithTrace (or MapConfig.Trace). Walk it for reconstructed
// publish→deliver spans (Spans, WriteJSON, WriteText) and per-stage
// latency breakdowns (Breakdown, Stats) — all walker-side: snapshots
// are seqlock-validated against the live rings, and the recording
// domains never block or retry for a walker.
func (m *Map) Tracer() *Tracer { return m.m.Tracer() }

// Compact rewrites every shard's directory log down to its live keys
// and publishes the result as a new compaction epoch. Appends already
// compact automatically when a shard's log outgrows its live set, so
// routine use never needs Compact; call it to reclaim directory memory
// eagerly (after bulk deletes), or to force readers latched on a
// corrupt shard to repair without waiting for the next write. Same
// single-writer-per-shard contract as Set and Delete. Readers rebase
// onto the new epoch on their next operation; views and watch
// subscriptions they hold survive the bump (see DESIGN.md §9).
func (m *Map) Compact() error { return m.m.Compact() }

// NewReader allocates a read endpoint (one per goroutine, up to
// MaxReaders).
func (m *Map) NewReader() (*MapReader, error) {
	r, err := m.m.NewReader()
	if err != nil {
		return nil, err
	}
	return &MapReader{r: r}, nil
}

// MapReader is a per-goroutine read endpoint over the whole map. It
// caches, per shard, the decoded directory and the per-key reader
// handles, so repeated Gets of unchanged keys are two atomic loads.
type MapReader struct {
	r *regmap.Reader
}

// Get returns a zero-copy view of key's freshest value, or
// ErrKeyNotFound. The view is valid until this handle's next
// Get/GetCopy/Snapshot of the same key or Close; Gets of other keys do
// not invalidate it, and neither does the key's deletion. Callers must
// not modify the returned slice.
func (r *MapReader) Get(key string) ([]byte, error) { return r.r.Get(key) }

// GetFresh is Get plus a change report: changed is false exactly when
// the view is the same publication of the same key incarnation the
// handle's previous Get/GetFresh of key returned. Pollers use it to
// skip decoding when directory churn did not touch their key.
func (r *MapReader) GetFresh(key string) (v []byte, changed bool, err error) {
	return r.r.GetFresh(key)
}

// GetCopy copies key's freshest value into dst and returns its length
// (ErrBufferTooSmall with the required length if dst cannot hold it).
func (r *MapReader) GetCopy(key string, dst []byte) (int, error) { return r.r.GetCopy(key, dst) }

// Fresh reports whether the handle's last Get of key is still current —
// one to two atomic loads, no RMW; false for keys this handle never Get
// and for deleted keys.
func (r *MapReader) Fresh(key string) bool { return r.r.Fresh(key) }

// Keys lists the map's live keys (each shard's listing individually
// atomic; no cross-shard snapshot implied — use Snapshot for that).
func (r *MapReader) Keys() ([]string, error) { return r.r.Keys() }

// Len reports the number of live keys visible to this handle.
func (r *MapReader) Len() (int, error) { return r.r.Len() }

// Snapshot returns an atomic point-in-time copy of every live key and
// its value: there is an instant during the call at which the map's
// state was exactly the returned one, across all shards (DESIGN.md §7
// gives the linearization argument). Values are copies owned by the
// caller.
//
// Snapshot executes no RMW instructions and, at steady state, reads
// every key through ARC's one-load fast path in a single pass; a shard
// is re-collected only when a concurrent publication is observed.
// Snapshot counts as a Get of every live key, so views previously
// returned by Get may be invalidated.
func (r *MapReader) Snapshot() (map[string][]byte, error) { return r.r.Snapshot() }

// ReadStats reports the handle's counters in constant time, however many
// keys the handle has read; collect after the owning goroutine has
// quiesced.
func (r *MapReader) ReadStats() MapReadStats { return r.r.Stats() }

// MapDelta is one WatchAll event at the byte level: the keys whose
// values changed since the previous event (the full snapshot on the
// first one, marked Full) and the keys deleted since then. Values are
// copies owned by the caller.
type MapDelta = regmap.Delta

// Watch returns an iterator over one key's publications: the value
// current when iteration starts (or ErrKeyNotFound if absent), then
// every change, parking between changes — an idle watcher costs
// nothing, and sibling-key traffic on the shard does not wake it.
// Deletions are part of the stream: a delete yields
// (nil, ErrKeyNotFound) once and the watch continues, so a later
// re-creation yields the fresh incarnation's value (never the deleted
// bytes). Delivery is at-least-once per publication with latest-value
// conflation; the iterator ends on consumer break, ctx done (yielding
// ctx's error) or a terminal register error. Watch owns the handle
// while it runs.
func (r *MapReader) Watch(ctx context.Context, key string) iter.Seq2[[]byte, error] {
	return r.r.Watch(ctx, key)
}

// WatchAll returns an iterator over whole-map changes as a
// snapshot-delta stream: the first event is a full linearizable
// Snapshot (MapDelta.Full), every later event the keys that changed
// and the keys that disappeared between consecutive snapshots. Each
// event derives from one atomic Snapshot, so applying the deltas in
// order reconstructs exactly the certified sequence of map states.
// Between events the watcher parks on the map-level gate. WatchAll
// owns the handle while it runs; like Snapshot, each collect counts as
// a Get of every live key.
func (r *MapReader) WatchAll(ctx context.Context) iter.Seq2[MapDelta, error] {
	return r.r.WatchAll(ctx)
}

// Close releases the handle and every register handle it cached.
func (r *MapReader) Close() error { return r.r.Close() }

// MapOf wraps a Map with an encoding, turning the byte-oriented keyed
// store into a typed one — the keyed counterpart of Reg[T]. Encoding
// and decoding run outside the registers' critical operations, so they
// may be arbitrarily expensive without affecting other threads'
// progress.
type MapOf[T any] struct {
	m *Map
	c Codec[T]
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
	m, err := NewByteMap(MapConfig{
		Shards:        cfg.shards,
		MaxReaders:    cfg.readers,
		MaxValueSize:  cfg.maxValueSize,
		DynamicValues: cfg.dynamicValues,
		Trace:         cfg.trace,
	})
	if err != nil {
		return nil, err
	}
	return &MapOf[T]{m: m, c: cd}, nil
}

// Map exposes the underlying byte map (stats, capacity, raw access).
func (t *MapOf[T]) Map() *Map { return t.m }

// Set publishes a typed value under key (shard-single-writer, like
// Map.Set).
func (t *MapOf[T]) Set(key string, v T) error {
	blob, err := t.c.Encode(v)
	if err != nil {
		return fmt.Errorf("arcreg: encode %q: %w", key, err)
	}
	return t.m.Set(key, blob)
}

// Delete removes key (see Map.Delete).
func (t *MapOf[T]) Delete(key string) error { return t.m.Delete(key) }

// Len reports the number of live keys (see Map.Len).
func (t *MapOf[T]) Len() int { return t.m.Len() }

// Shards reports the shard count.
func (t *MapOf[T]) Shards() int { return t.m.Shards() }

// ShardOf reports which shard key routes to (see Map.ShardOf).
func (t *MapOf[T]) ShardOf(key string) int { return t.m.ShardOf(key) }

// Caps reports the map's capability set (see Map.Caps).
func (t *MapOf[T]) Caps() Caps { return t.m.Caps() }

// WriteStats reports aggregate publish-side counters; collect at
// quiescence.
func (t *MapOf[T]) WriteStats() MapWriteStats { return t.m.WriteStats() }

// Stats returns the map's observability tree (see Map.Stats).
func (t *MapOf[T]) Stats() Stats { return t.m.Stats() }

// Compact rewrites every shard's directory down to its live keys (see
// Map.Compact).
func (t *MapOf[T]) Compact() error { return t.m.Compact() }

// Codec reports the encoding in use.
func (t *MapOf[T]) Codec() Codec[T] { return t.c }

// NewReader allocates a typed read endpoint (counted against the map's
// MaxReaders).
func (t *MapOf[T]) NewReader() (*MapOfReader[T], error) {
	r, err := t.m.NewReader()
	if err != nil {
		return nil, err
	}
	return &MapOfReader[T]{r: r, c: t.c, decodedCap: decodeCacheCap[T]()}, nil
}

// MapOfReader is a per-goroutine typed read endpoint with the full
// capability surface of the byte reader: decoding reads, freshness
// probes, enumeration, the atomic snapshot, and the Watch and WatchAll
// change iterators.
type MapOfReader[T any] struct {
	r *MapReader
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

// Get returns the freshest typed value under key, or ErrKeyNotFound,
// decoding straight from the register slot with no intermediate copy.
// For a copy-safe T — bools, numbers, strings, and arrays and structs
// of only those — it decodes once per publication: while the key's
// register has kept serving this handle the publication an earlier Get
// decoded, Get returns that decode again (so Decode must be pure; see
// Codec). Any other T, such as one holding a pointer, slice or map,
// decodes on every Get. The handle keeps at most one decode per key and
// at most 4,096 in all, within 512 KiB; Close drops them.
func (r *MapOfReader[T]) Get(key string) (T, error) {
	v, tok, err := r.r.r.GetToken(key)
	if err != nil {
		var zero T
		return zero, err
	}
	if r.decodedCap == 0 {
		return r.c.Decode(v)
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

// Fresh reports whether the handle's last Get of key is still current
// (see MapReader.Fresh).
func (r *MapOfReader[T]) Fresh(key string) bool { return r.r.Fresh(key) }

// Keys lists the map's live keys (see MapReader.Keys).
func (r *MapOfReader[T]) Keys() ([]string, error) { return r.r.Keys() }

// Len reports the number of live keys visible to this handle.
func (r *MapOfReader[T]) Len() (int, error) { return r.r.Len() }

// Snapshot returns an atomic point-in-time view of every live key,
// decoded — the typed counterpart of MapReader.Snapshot (same
// linearization guarantee and cost model).
func (r *MapOfReader[T]) Snapshot() (map[string]T, error) {
	raw, err := r.r.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make(map[string]T, len(raw))
	for k, v := range raw {
		t, err := r.c.Decode(v)
		if err != nil {
			return nil, fmt.Errorf("arcreg: decode %q: %w", k, err)
		}
		out[k] = t
	}
	return out, nil
}

// ReadStats reports the handle's counters (see MapReader.ReadStats).
func (r *MapOfReader[T]) ReadStats() MapReadStats { return r.r.ReadStats() }

// Watch returns an iterator over one key's publications, decoded: the
// typed counterpart of MapReader.Watch. It yields the value current
// when iteration starts, then every change, parking between changes.
// A deletion yields (zero, ErrKeyNotFound) once and the watch
// continues — a later re-creation yields the new incarnation's value;
// break on the miss if deletion should end the subscription. Delivery
// is at-least-once with latest-value conflation (a slow consumer sees
// fewer, newer values and never blocks the writer). The iterator ends
// on consumer break, ctx done (yielding ctx's error), a decode error,
// or a terminal register error. Watch owns the handle while it runs.
func (r *MapOfReader[T]) Watch(ctx context.Context, key string) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		for raw, err := range r.r.Watch(ctx, key) {
			if err != nil {
				if errors.Is(err, ErrKeyNotFound) {
					if !yield(zero, err) {
						return
					}
					continue
				}
				yield(zero, err)
				return
			}
			v, derr := r.c.Decode(raw)
			if !yield(v, derr) || derr != nil {
				return
			}
		}
	}
}

// MapDeltaOf is one typed WatchAll event: created/changed keys decoded
// to T, deleted keys by name, Full marking the initial whole-map
// snapshot.
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
// snapshot-delta stream — the typed counterpart of MapReader.WatchAll
// (same atomicity: every event derives from one linearizable
// Snapshot). The iterator ends on consumer break, ctx done (yielding
// ctx's error), a decode error, or a terminal register error. WatchAll
// owns the handle while it runs.
func (r *MapOfReader[T]) WatchAll(ctx context.Context) iter.Seq2[MapDeltaOf[T], error] {
	return func(yield func(MapDeltaOf[T], error) bool) {
		for d, err := range r.r.WatchAll(ctx) {
			if err != nil {
				yield(MapDeltaOf[T]{}, err)
				return
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

// Reader exposes the underlying byte reader (raw views, stats).
func (r *MapOfReader[T]) Reader() *MapReader { return r.r }

// Close releases the handle and drops its cached decodes.
func (r *MapOfReader[T]) Close() error {
	r.decoded = nil
	return r.r.Close()
}
