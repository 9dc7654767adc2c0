package regmap

// The map's watch layer: parked, context-aware change subscriptions
// over single keys (Watch) and over the whole map (WatchAll), built on
// the internal/notify publication sequencers the shard writers drive.
//
// Wakeup routing is two-level, mirroring the map's read path:
//
//   - A single-key watcher parks on the key's value-register gate (its
//     own publications only — sibling keys on the shard do not wake
//     it) AND the shard's directory gate (key creation and deletion —
//     the lifecycle events that re-route the key). The
//     change predicate is Reader.Fresh(key), which is exact, so a
//     wakeup either yields a change or re-parks.
//
//   - A whole-map watcher parks on the map-level gate every shard
//     sequencer chains to; its predicate compares the per-shard
//     sequencer epochs snapshotted before the last collect.
//
// Watchers never park on those gates directly: each watch session
// subscribes a leaf of the gate's wakeup tree (notify.Tree via
// Gate.Fan) and parks there, so a publication's broadcast cost is
// spread across the tree's relay goroutines instead of one inline
// close over every parked watcher. Directory and map subscriptions
// live for the session; a value-register subscription lives for one
// key incarnation — Watch re-subscribes when delete/recreate (or
// slot reuse) rebinds the key to a different register, so a stale
// incarnation's tree can never be the only thing waking the watcher
// (the directory leaf covers every lifecycle transition).
//
// Both follow the snapshot-epoch-before-read discipline, giving
// at-least-once delivery of every publication with latest-value
// conflation: a burst of Sets may be observed as one change carrying
// the newest value. Deletion and re-creation are generation-aware by
// construction — a re-created key is a fresh register seeded with its
// first value, so a watcher can never be woken into a stale
// incarnation's bytes (no resurrection wakeups).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"

	"arcreg/internal/arc"
	"arcreg/internal/notify"
	"arcreg/internal/trace"
)

// Wakeup-tree topologies for the watch layer. Per-key and per-shard
// fans stay shallow (one cascade level) — their gates are many and
// mostly cold, so the tree's fixed gate cost matters more than cohort
// width. The single map-level gate is where whole-map watcher
// populations concentrate, so it gets the deep default fan.
const (
	keyFanArity, keyFanDepth = 16, 1
	dirFanArity, dirFanDepth = 8, 1
	mapFanArity, mapFanDepth = notify.DefaultFanArity, notify.DefaultFanDepth
)

// watchTrace wires a watch session's ledger into the handle's trace
// lane for the duration of the iteration, returning the detach. The
// lane then carries the session's StageWake events (via noteWake) and
// the StageConflate decisions recorded below.
func (r *Reader) watchTrace(ws *notify.WatchStats) func() {
	ws.Trace(r.lane)
	r.watchWS = ws
	return func() { r.watchWS = nil }
}

// noteConflate records a delivery's conflation decision into the
// session's trace lane: Arg is the number of publications this delivery
// conflates away (mirroring NoteDelivered's epoch-jump accounting,
// computed before the ledger frame advances), Aux the epoch frame being
// delivered. It runs at decision time — before the value is yielded —
// so a span's stages read in pipeline order: the decision, then the
// frame flush the consumer performs inside the yield. The span is the
// origin stamp of the wake that triggered the decision; first-poll
// deliveries (no wake yet) record unthreaded, which Spans() skips but
// Breakdown counts. The ledger itself still advances only after the
// yield returns (NoteDelivered semantics: delivery completes when
// processing does), so a consumer that breaks mid-yield leaves the
// decision on the trace but not on the ledger.
func (r *Reader) noteConflate(ws *notify.WatchStats, e uint64) {
	if r.lane == nil {
		return
	}
	var drops uint64
	if prev := ws.Observed(); ws.Delivered() > 0 && e > prev+1 {
		drops = e - prev - 1
	}
	r.lane.Record(trace.StageConflate, uint32(drops), ws.LastWake(), e)
}

// observe folds an observe-no-change probe into the ledger and records
// the (negative) conflation decision: Arg 0 drops, Aux 0 — the probe
// found nothing new. Threaded by the triggering wake like deliver.
func (r *Reader) observe(ws *notify.WatchStats, e uint64) {
	ws.NoteObserved(e)
	r.lane.Record(trace.StageConflate, 0, ws.LastWake(), 0)
}

// Watch returns an iterator over key's publications: it yields the
// value current when iteration starts (or ErrKeyNotFound if the key is
// absent), then every change it observes, parking between changes
// instead of polling. Yielded views follow Get's aliasing rules (valid
// until the handle's next operation on the key).
//
// Lifecycle events are part of the stream: a deletion yields
// (nil, ErrKeyNotFound) once and the watch continues — a later
// re-creation yields the new incarnation's value. A corrupt shard is a
// lifecycle event too: the watch yields (nil, ErrShardCorrupt) once per
// episode, parks on the directory gate, and resumes when a later
// publication repairs the shard (see ErrShardCorrupt) — corruption
// degrades a watch, it does not kill it. The iterator ends when the
// consumer breaks, when ctx is done (yielding ctx's error), or on a
// terminal register error.
//
// Watch owns the Reader while it runs (handles are single-goroutine,
// like every reader in this package); run concurrent watches on
// separate Reader handles.
func (r *Reader) Watch(ctx context.Context, key string) iter.Seq2[[]byte, error] {
	return func(yield func([]byte, error) bool) {
		si := r.m.ShardOf(key)
		sh := r.m.shards[si]
		rs := &r.shards[si]
		// The watcher's backpressure ledger, framed by the shard's
		// publication epoch (the finest epoch that covers both the
		// key's value publications and its directory lifecycle). The
		// frame is wider than the subscription, so sibling-key activity
		// delivered in one wakeup shows up as conflation — documented
		// in DESIGN §10. Attach/detach are the iterator's lifecycle
		// edges, never per-event.
		ws := &notify.WatchStats{}
		r.m.watchTrack.Attach(ws)
		defer r.m.watchTrack.Detach(ws)
		// On a traced map, the session records into the handle's lane:
		// StageWake on every waking park (via the ledger), StageConflate
		// on every delivery decision (deliver/observe below).
		detachTrace := r.watchTrace(ws)
		defer detachTrace()
		// The session's leaf subscriptions. The directory leaf lives as
		// long as the iterator; the value leaf follows the key's current
		// register and is re-subscribed when a delete/recreate rebinds
		// the key (valOwner tracks the incarnation).
		dirFan := sh.dirNotify.Fan(dirFanArity, dirFanDepth)
		r.m.traceTree(dirFan, fmt.Sprintf("fan-dir%d", si))
		dirSub := dirFan.Subscribe()
		defer dirSub.Close()
		var valSub *notify.Sub
		var valOwner *arc.Register
		defer func() {
			if valSub != nil {
				valSub.Close()
			}
		}()
		first := true
		lastMiss := false
		lastCorrupt := false
		for {
			if err := ctx.Err(); err != nil {
				yield(nil, err)
				return
			}
			// Epoch snapshot strictly before the read: the value (or
			// absence) GetFresh returns is current as of at least this
			// epoch, so a delivery observes the frame at seen.
			seen := sh.notify.Epoch()
			ws.NoteSeen(seen)
			v, changed, err := r.GetFresh(key)
			switch {
			case errors.Is(err, ErrKeyNotFound):
				// Deletion (or initial absence) is an observation too —
				// delivered once per transition, then the watch parks on
				// the directory gate alone: only a directory publication
				// (a re-creation) can make the key exist again.
				if first || !lastMiss {
					r.noteConflate(ws, seen)
					if !yield(nil, ErrKeyNotFound) {
						return
					}
					ws.NoteDelivered(seen)
				} else {
					r.observe(ws, seen)
				}
				first, lastMiss, lastCorrupt = false, true, false
				err := notify.AwaitStats(ctx, rs.moved, ws, dirSub.Gate())
				if err != nil {
					yield(nil, err)
					return
				}
			case errors.Is(err, ErrShardCorrupt):
				// Corruption is an episode, not the end of the stream:
				// deliver it once, then park on the directory gate — the
				// next publication is GetFresh's repair opportunity, and
				// the watch resumes with the repaired state. The ledger's
				// observed frame deliberately stays put: publications the
				// episode hides from the watcher are real lag.
				if first || !lastCorrupt {
					if !yield(nil, err) {
						return
					}
				}
				first, lastCorrupt = false, true
				err := notify.AwaitStats(ctx, rs.moved, ws, dirSub.Gate())
				if err != nil {
					yield(nil, err)
					return
				}
			case err != nil:
				yield(nil, err) // terminal: closed handle or register failure
				return
			default:
				if first || changed {
					r.noteConflate(ws, seen)
					if !yield(v, nil) {
						return
					}
					ws.NoteDelivered(seen)
				} else {
					r.observe(ws, seen)
				}
				first, lastMiss, lastCorrupt = false, false, false
				// Park on a leaf of the key's own value-gate tree plus
				// the session's directory leaf. The Fresh predicate is
				// loaded after arming (inside Await), closing the publish
				// race; it spans both the value register and the
				// directory, so either gate's publication makes it report
				// stale.
				slot, ok := rs.table[key]
				if !ok {
					continue // deleted between GetFresh and here: re-read
				}
				if reg := rs.dir.regs[slot]; valOwner != reg {
					// New incarnation (first round, or delete/recreate
					// rebound the key): move the value subscription to
					// the register that Fresh now reads. The old tree
					// must not be our only wake source — and after this
					// swap it wakes nobody for free.
					if valSub != nil {
						valSub.Close()
					}
					valOwner = reg
					valFan := reg.Notifier().Fan(keyFanArity, keyFanDepth)
					r.m.traceTree(valFan, "fan-key:"+key)
					valSub = valFan.Subscribe()
				}
				err := notify.AwaitStats(ctx, func() bool {
					return !r.Fresh(key)
				}, ws, valSub.Gate(), dirSub.Gate())
				if err != nil {
					yield(nil, err)
					return
				}
			}
		}
	}
}

// Delta is one WatchAll event: the keys whose values changed since the
// previous event and the keys that disappeared. Values are copies owned
// by the caller (Snapshot's ownership rules).
type Delta struct {
	// Values holds created keys and keys whose bytes changed, with
	// their new values. On the first event it is the complete snapshot.
	Values map[string][]byte
	// Deleted lists keys present in the previous event and absent now,
	// sorted for deterministic consumption.
	Deleted []string
	// Full marks the first event (Values is the whole map).
	Full bool
}

// WatchAll returns an iterator over whole-map changes as a
// snapshot-delta stream: the first event is a full linearizable
// Snapshot, every later event the difference between consecutive
// Snapshots — created/changed keys with their new values, and deleted
// keys. Between events the watcher parks on the map-level gate; every
// shard publication wakes it, and collects that observe no byte-level
// difference are conflated away (no empty events are yielded).
//
// Each event is atomic across the whole map (it derives from one
// linearizable Snapshot), so a consumer applying the deltas in order
// reconstructs exactly the sequence of map states the snapshots
// certified. Delivery is at-least-once per publication with
// latest-value conflation, and WatchAll owns the Reader while it runs.
func (r *Reader) WatchAll(ctx context.Context) iter.Seq2[Delta, error] {
	return func(yield func(Delta, error) bool) {
		nsh := len(r.m.shards)
		epochs := make([]uint64, nsh)
		var prev map[string][]byte
		first := true
		corrupted := false
		// The whole-map ledger, framed by the sum of the shard
		// publication epochs — the exact frame of the subscription
		// (every publication anywhere is one epoch tick), so lag and
		// conflation count real map publications.
		ws := &notify.WatchStats{}
		r.m.watchTrack.Attach(ws)
		defer r.m.watchTrack.Detach(ws)
		// Trace wiring, as in Watch: the session's wakes and conflation
		// decisions land in the handle's lane.
		detachTrace := r.watchTrace(ws)
		defer detachTrace()
		// One leaf of the map-level gate's tree for the session:
		// whole-map watchers are the population that concentrates on a
		// single gate, so this is where the deep fan pays. On a traced
		// map its root relay records cascades into the dedicated fan
		// ring allocated at construction.
		mapFan := r.m.watchGate.Fan(mapFanArity, mapFanDepth)
		if r.m.fanRing != nil && !mapFan.Traced() {
			mapFan.Trace(r.m.fanRing)
		}
		mapSub := mapFan.Subscribe()
		defer mapSub.Close()
		for {
			if err := ctx.Err(); err != nil {
				yield(Delta{}, err)
				return
			}
			// Epoch snapshot strictly before the collect: a publication
			// racing the Snapshot either lands in it or advances an
			// epoch past this snapshot and forces another round.
			var seen uint64
			for i, sh := range r.m.shards {
				epochs[i] = sh.notify.Epoch()
				seen += epochs[i]
			}
			ws.NoteSeen(seen)
			snap, err := r.Snapshot()
			if errors.Is(err, ErrShardCorrupt) {
				// A corrupt shard degrades the stream instead of ending
				// it (mirroring Watch): deliver the episode once, park,
				// and retry on the next publication — which is also the
				// snapshot's repair opportunity. The observed frame stays
				// put while the episode lasts (that unobservability IS
				// lag).
				if !corrupted {
					if !yield(Delta{}, err) {
						return
					}
					corrupted = true
				}
				err = notify.AwaitStats(ctx, func() bool {
					for i, sh := range r.m.shards {
						if sh.notify.Epoch() != epochs[i] {
							return true
						}
					}
					return false
				}, ws, mapSub.Gate())
				if err != nil {
					yield(Delta{}, err)
					return
				}
				continue
			}
			if err != nil {
				yield(Delta{}, err)
				return
			}
			corrupted = false
			delta := diffSnapshots(prev, snap)
			if first || len(delta.Values) > 0 || len(delta.Deleted) > 0 {
				delta.Full = first
				r.noteConflate(ws, seen)
				if !yield(delta, nil) {
					return
				}
				ws.NoteDelivered(seen)
				first = false
			} else {
				// Nothing to deliver: the collect proved we are current
				// as of seen (byte-identical snapshots conflate away).
				r.observe(ws, seen)
			}
			prev = snap
			err = notify.AwaitStats(ctx, func() bool {
				for i, sh := range r.m.shards {
					if sh.notify.Epoch() != epochs[i] {
						return true
					}
				}
				return false
			}, ws, mapSub.Gate())
			if err != nil {
				yield(Delta{}, err)
				return
			}
		}
	}
}

// diffSnapshots computes the delta from prev to cur. Both maps are
// Snapshot results (values caller-owned), so entries move into the
// delta without copying.
func diffSnapshots(prev, cur map[string][]byte) Delta {
	d := Delta{Values: make(map[string][]byte)}
	for k, v := range cur {
		if pv, ok := prev[k]; !ok || !bytes.Equal(pv, v) {
			d.Values[k] = v
		}
	}
	for k := range prev {
		if _, ok := cur[k]; !ok {
			d.Deleted = append(d.Deleted, k)
		}
	}
	sort.Strings(d.Deleted)
	return d
}
