// Package arcreg provides wait-free multi-word atomic (1,N) registers for
// large-scale data sharing between one writer and many readers on
// multi-core machines, implementing Anonymous Readers Counting (ARC) from
// Ianni, Pellegrini & Quaglia, "A Wait-free Multi-word Atomic (1,N)
// Register for Large-scale Data Sharing on Multi-core Machines"
// (CLUSTER 2017, arXiv:1707.07478), together with the baselines the paper
// evaluates against and an (M,N) multi-writer extension.
//
// # The problem
//
// Hardware atomicity covers single words; sharing a multi-word value (a
// configuration blob, a statistics snapshot, an order book) between one
// producer and many consumers needs an algorithm. Locks serialize readers
// against the writer and collapse when a lock holder loses its CPU;
// classical wait-free registers copy the value multiple times per
// operation. ARC gives every operation a bounded, constant number of
// steps, copies the value exactly once (on write — reads are zero-copy),
// admits up to 2³²−2 concurrent readers, and needs at most N+2 value
// buffers — only as many as the versions its readers hold at once, plus
// two.
//
// # Quick start
//
// New is the generics-first entry point: one constructor for every
// algorithm, both writer shapes, and any encoding. The defaults are the
// paper's algorithm (ARC) over encoding/json, seeded with T's zero
// value:
//
//	type Limits struct{ RPS, Burst int }
//
//	reg, err := arcreg.New[Limits]()
//	if err != nil { ... }
//
//	// One goroutine writes:
//	_ = reg.Set(Limits{RPS: 100, Burst: 250})
//
//	// Up to Readers goroutines read, each through its own handle:
//	rd, _ := reg.NewReader()
//	defer rd.Close()
//	v, _ := rd.Get()          // decoded straight from the slot, no copy
//
// Options select the construction, shape, capacity and codec:
//
//	reg, err := arcreg.New[Snapshot](
//		arcreg.WithAlgorithm(arcreg.ARC), // or RF, Peterson, Lock, Seqlock, LeftRight
//		arcreg.WithWriters(4),            // M > 1 selects the (M,N) composition
//		arcreg.WithReaders(64),
//		arcreg.WithMaxValueSize(32<<10),
//		arcreg.WithCodec(arcreg.Binary[Snapshot]()),
//		arcreg.WithInitial(Snapshot{Epoch: 1}),
//	)
//
// The handles are capability-complete — Get, ViewBytes, Fresh,
// ReadStats/WriteStats, and the Watch change iterator are methods, with
// Reg.Caps reporting at construction time what the chosen algorithm
// supports (no type assertions):
//
//	for v, err := range rd.Watch(ctx) {
//		if err != nil { break } // ctx.Err() or a read/decode error
//		apply(v) // runs once per observed change; the watcher parks
//		         // between changes and wakes in ~µs on publication
//	}
//
// To share more than one value, NewMap is the keyed store with the same
// option set — every key its own wait-free register, with the full
// lifecycle:
//
//	m, err := arcreg.NewMap[Session](arcreg.WithShards(16))
//	rd, err := m.NewReader()
//	_ = m.Set("alice", Session{Node: "n1"})  // create or update
//	s, err := rd.Get("alice")                // 2 atomic loads when unchanged
//	_ = m.Delete("alice")                    // tombstone; no resurrection
//	all, err := rd.Snapshot()                // atomic multi-key view
//
// # Watching for changes
//
// Watch is the event-driven subscription surface: instead of polling,
// a watcher parks on the register's publication sequencer
// (internal/notify) and is woken by the next publication — wakeup
// latency is microseconds, an idle watcher consumes nothing, and the
// writer's publish path stays zero-RMW and allocation-free while no
// watcher is parked (BenchmarkSetWithWatcherIdle vs BenchmarkSet).
// Every algorithm carries the sequencer, so Watch and Changed take the
// same path on all of them.
// Delivery is at-least-once per publication with latest-value
// conflation: the register holds one value, so a slow consumer simply
// observes fewer, newer values and can never build a backlog or block
// the writer.
//
//	rd, _ := reg.NewReader()
//	for v, err := range rd.Watch(ctx) { ... }   // every change, parked
//
//	select {                                    // one-shot, select-friendly
//	case <-reg.Changed(ctx): ...
//	case <-timeout: ...
//	}
//
//	mrd, _ := m.NewReader()
//	for v, err := range mrd.Watch(ctx, "alice") { ... } // one key: woken by
//	    // its changes and lifecycle only; a delete yields ErrKeyNotFound
//	    // once and the watch survives re-creation (fresh incarnation,
//	    // never resurrected bytes)
//	for d, err := range mrd.WatchAll(ctx) { ... }       // whole map: a
//	    // snapshot-delta stream; every event derives from one atomic
//	    // Snapshot
//
// A consumer that wants fixed-interval pacing sleeps in the Watch loop
// body: each step then yields the freshest value, and no publication is
// yielded twice in a row.
//
// # Capabilities
//
// register.Caps declares what each construction's handles support; New
// and NewMap resolve it once at construction (Reg.Caps, Map.Caps), so
// application code branches on fields instead of type-asserting. A true
// field is a promise; a false one says what the method returns instead.
// Per algorithm:
//
//   - ARC: the full set — ZeroCopyView, FreshProbe, FreshView,
//     WaitFreeRead, WaitFreeWrite.
//   - RF: ZeroCopyView, FreshProbe and wait-freedom on both sides —
//     everything but the combined FreshView probe-and-fetch (and every
//     read costs one RMW, which Caps does not model; see the rmw
//     figure).
//   - Peterson: WaitFreeRead/WaitFreeWrite only — reads copy (up to
//     three times) and cannot probe freshness.
//   - Lock: ZeroCopyView (a view pins the read lock), but neither side
//     is wait-free: WaitFreeRead/WaitFreeWrite are false.
//     Get therefore decodes a copy: a view held by an idle handle
//     would block the writer.
//   - Seqlock: WaitFreeWrite but not WaitFreeRead (reads retry while a
//     write overlaps); no views (reads copy under the seqcount).
//   - LeftRight: ZeroCopyView and WaitFreeRead, but writes block on
//     readers (WaitFreeWrite false), so Get decodes a copy as on Lock.
//   - The (M,N) composite inherits ARC's full set, and the Map all of it
//     but FreshView; the map-level Fresh probe spans the directory and
//     the key register.
//
// Every construction is watchable: each carries a publication
// sequencer, so Caps has no field for it. Every handle has every method
// and counts its work (ReadStats, WriteStats); where a capability is
// absent the method answers as Caps says: Fresh reports false (forcing
// a re-read), View and ViewBytes return ErrNoView, and Watch compares
// copies where it cannot probe. The harness summary
// tables (cmd/arcbench -figure rmw/latency) print the WaitFree
// capabilities per row, so measured numbers and progress guarantees
// read side by side.
//
// # Codecs
//
// Codec[T] is the one encoding layer every typed surface shares: JSON
// (the default), Gob (binary stdlib encoding for Go value graphs), Raw
// (zero-copy []byte passthrough with view semantics), String, and
// Binary (encoding.BinaryMarshaler/Unmarshaler) are built in;
// implement the interface to plug in any wire format. Decoders must not retain the slice they are handed — it
// may alias a register slot that is recycled after the decode returns
// (Raw is the documented exception).
//
// # Choosing an algorithm
//
//   - ARC — the paper's algorithm; wait-free, constant-time reads,
//     amortized constant-time writes, zero-copy views. Use this (it is
//     the default).
//   - RF — the Readers-Field register (Larsson et al. 2009); wait-free
//     but pays one RMW per read and is limited to 58 readers. The
//     paper's principal baseline.
//   - Peterson — Peterson's 1983 construction from single-word
//     registers; wait-free without any RMW instruction, but reads copy
//     the value up to three times. Historical baseline.
//   - Lock — a reader/writer-spinlock register; simple but not
//     wait-free: one preempted reader stalls the writer. Comparator.
//   - Seqlock, LeftRight — extension baselines beyond the paper (see
//     their constant docs for the trade-offs).
//
// WithWriters(m > 1) composes M ARC registers into an (M,N) multi-
// writer register with tag-based ordering, a freshness-gated collect
// and an adaptive epoch gate (one-load all-fresh scans). NewMap scales
// the primitive to a keyed store instead — use it when you share more
// than one value.
//
// # Byte-level access
//
// Code that works in raw bytes uses the same constructors: New over the
// Raw codec builds every register (WithAlgorithm and WithWriters pick
// the construction), and NewMap over it the byte map, Map, an alias of
// MapOf[[]byte] (NewByteMap takes a MapConfig instead of options).
// Under Raw, MapOfReader.Get returns the stored bytes zero-copy, and
// ReadBytes copies them out for any T.
// TypedReader.ViewBytes/ReadBytes and TypedWriter.SetBytes bypass the
// codec per call. TypedReader.Reader and TypedWriter.Writer expose the
// byte handles underneath, for either shape. A byte Reader has the same
// methods on every algorithm — Read, View, Fresh, ReadStats, Close —
// answering as Reg.Caps says, and on the (M,N) shape
// interface{ LastTag() MNTag } reports the version tag. Reg.Register
// exposes the (1,N) byte register itself. A byte user who relied on the
// old constructors' one-zero-byte initial value passes
// WithInitialBytes([]byte{0}); New otherwise seeds the register with
// the codec's encoding of T's zero value (empty under Raw).
//
// # The (M,N) fresh-gated collect
//
// The (M,N) composite preserves ARC's zero-RMW steady state at the
// composite level. Every scan handle caches the last decoded (tag,
// view) per component; a read probes each component with ARC's
// freshness check (one atomic load, no RMW — the paper's R1 comparison
// exposed standalone) and re-reads and re-decodes only components that
// actually changed, keeping a running argmax so an all-fresh scan
// returns the cached winner immediately. Writers skip their own
// component entirely: its tag is their own last publish. A steady-state
// read therefore costs M atomic loads with zero RMW instructions and
// zero tag decoding; measured at M=4 this is ~2.7x faster than the
// always-scan collect (cmd/arcbench's mn-nogate algorithm and
// BenchmarkMNReadNoFreshGate run the old path for ablation).
//
// The RMW economy is observable: an (M,N) TypedReader.ReadStats
// aggregates component RMW per composite read (the mn-rmw/read metric
// reported by BenchmarkRMWCount and cmd/arcbench -figure rmw), and
// TypedWriter.WriteStats folds the collect cost into the publish-side
// counters.
// See DESIGN.md for the design notes and measured numbers.
//
// # The sharded snapshot map
//
// MapOf scales the register to an addressable store: keys are partitioned
// over shards, each key owns an ARC register, and each shard publishes
// its key directory — an append-only log of add and tombstone entries —
// through a further ARC register, so key lookup, enumeration, and value
// reads are all wait-free zero-copy register reads. Per-reader handles
// cache the decoded directory behind ARC's freshness probe: a Get of an
// unchanged hot key is two atomic loads with zero RMW instructions
// regardless of map size, observable through MapOfReader.ReadStats
// (BenchmarkMapGet; cmd/arcbench -figure map sweeps key counts ×
// threads under Zipf popularity, with -delete-every and -snapshot-every
// mixing in the lifecycle operations).
//
// The lifecycle is complete: Delete publishes a tombstone through the
// directory register (the hot-key read path is untouched — still two
// loads, zero RMW), the key's slot is recycled, and a re-created key
// gets a fresh value register so deleted values can never resurrect.
// MapOfReader.Snapshot returns an atomic point-in-time copy of every live
// key across all shards, built on per-shard validated publish counters
// (the mnreg epoch-gate technique): no RMW instructions, one pass at
// steady state, re-collecting only shards observed to move (DESIGN.md
// §7 has the linearization argument). Typed access mirrors the
// single-register API: NewMap[T] shares New's option set and returns
// capability-complete handles (Get, Fresh, Keys, Snapshot, and the
// per-key Watch and whole-map WatchAll iterators); the same Codec[T]
// layer plugs in throughout.
package arcreg
