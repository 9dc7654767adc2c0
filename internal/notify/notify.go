// Package notify is the publication-notification layer under the Watch
// API: a per-register publication sequencer (a monotonic epoch plus a
// swap-on-publish broadcast gate) that lets idle readers park on "has
// anything been published?" instead of busy-polling, without taxing the
// writer.
//
// # Why not per-waiter channel registration
//
// The obvious design — waiters register a channel in a list, the writer
// walks the list on publish — is unsound for a wait-free writer: the
// list needs a lock or an unbounded-retry lock-free structure on the
// *publish* path, the walk is O(waiters), and a slow waiter's full
// channel either blocks the writer or forces a per-waiter drop policy.
// Every one of those breaks the register's writer-side guarantees (the
// paper's writer is bounded straight-line code; see DESIGN.md §8 for
// the full analysis).
//
// This package inverts the responsibility, following the same
// validated-gate discipline as the mnreg epoch gate and the regmap
// snapshot counters:
//
//   - The epoch is a single word the publisher advances with a plain
//     atomic store (the publisher is the register's single writer, so
//     no RMW is needed — it owns the counter).
//
//   - The gate is one atomic pointer holding the broadcast channel the
//     currently parked waiters share, or nil when nobody is parked.
//     The publisher's wakeup check is one atomic load; only when a
//     waiter is actually parked does it swap the pointer out and close
//     the channel — a broadcast to every parked waiter at once, off
//     the no-waiter fast path.
//
//   - A Sequencer allocates its gate lazily: the first waiter installs
//     it with a CAS, so a register nobody ever watches never pays for
//     one, and its publisher's wakeup check is one load of a nil
//     pointer.
//
//   - Waiters do the expensive part: install the gate if needed,
//     allocate the channel, arm it with a CAS, and — crucially —
//     re-check the epoch *after* arming the gate. Both the waiter (gate
//     CASes, then epoch load) and the publisher (epoch store, then gate
//     loads) cross the words in opposite orders with sequentially
//     consistent atomics, so at least one side observes the other:
//     either the waiter sees the new epoch and never sleeps, or the
//     publisher sees the installed, armed gate and closes it. A lost
//     wakeup would require both loads to miss both stores, which
//     sequential consistency forbids (the linearization argument is
//     spelled out in DESIGN.md §8).
//
// The publisher's cost with no waiter parked is therefore one atomic
// store plus one atomic load per installed gate in the chain — zero RMW
// instructions, zero allocations, zero branches on shared mutable state
// beyond the nil checks. Waiters pay one allocation and one CAS per
// park, which is the right side of the ledger: parked waiters are idle
// by definition.
//
// # Gate chaining
//
// A Gate may be chained to a parent Gate at wiring time: waking a gate
// also wakes its ancestors. Compositions use this to aggregate many
// publishers into one parking point — the (M,N) register chains its M
// component sequencers to one composite gate, and the sharded map
// chains its per-shard sequencers to one map-level gate — while each
// waiter still rechecks its own epoch predicate after arming, so the
// chain adds only atomic loads to the publish path, never RMW.
//
// # Gate trees
//
// A flat gate's close is O(parked waiters) of scheduler work executed
// inline in the publisher — fine at tens of waiters, a wakeup storm at
// 100k. Tree (see tree.go) attaches a fixed-arity hierarchy of gates
// to any source gate: watchers subscribe to a leaf and park there, and
// per-node relay goroutines cascade each wake down level by level, so
// the publisher's worst case stays one swap + one close (of the root
// relay's one-waiter channel) and no single goroutine ever closes more
// than one cohort. The no-lost-wakeup argument above then applies per
// level; the relay's re-arm-before-propagate ordering is what makes
// the induction go through.
package notify

import (
	"context"
	"sync/atomic"

	"arcreg/internal/obs"
	"arcreg/internal/pad"
	"arcreg/internal/trace"
)

// nowNanos is the package's monotonic nanosecond clock: wake stamps
// and wakeup-latency samples are durations since process start, immune
// to wall-clock steps. It is the flight recorder's clock (trace.Now),
// so wake stamps, span stamps and trace event timestamps are directly
// comparable — the property that lets one publication stamp thread a
// span across the notify cascade.
func nowNanos() int64 { return trace.Now() }

// Gate is the parking point: an atomic pointer to the broadcast channel
// shared by the currently parked waiters, nil when nobody is parked.
// The zero value is ready to use. Publishers call Wake; waiters call
// Arm, re-check their change predicate, and then block on the returned
// channel (see Await for the packaged protocol).
type Gate struct {
	// armed is padded: it is the CAS target of every parking waiter
	// and must not false-share with the epoch word or neighbouring
	// gates.
	_     [pad.CacheLineSize - 8]byte
	armed atomic.Pointer[chan struct{}]
	_     [pad.CacheLineSize - 8]byte
	// stamp is the monotonic time of the last waking publish, stored
	// only on the armed slow path (just before the swap-and-close, so
	// the channel close's happens-before edge carries it to every woken
	// waiter). The no-waiter publish path never touches it.
	stamp  atomic.Int64
	_      [pad.CacheLineSize - 8]byte
	parent *Gate
	// fan is the lazily attached wakeup tree (nil for the common flat
	// gate). Cold: touched only by Fan/Fanned, never on the publish
	// path — Wake goes through the armed pointer exactly as before,
	// the tree's root relay being just another parked waiter.
	fan atomic.Pointer[Tree]
	_   pad.CacheLinePad
}

// Chain links g to parent: every Wake of g also wakes parent (and its
// ancestors). Wiring-time only — call before the gate is shared with
// concurrent publishers or waiters.
func (g *Gate) Chain(parent *Gate) { g.parent = parent }

// Arm installs (or joins) the broadcast channel waiters park on and
// returns it. The caller MUST re-check its change predicate after Arm
// and before blocking on the channel: the arm-then-recheck order is
// what closes the lost-wakeup window against a concurrent publish.
// The returned channel may already be closed (a publish raced the arm);
// blocking on it then returns immediately, which is safe — spurious
// wakeups are absorbed by the caller's predicate loop.
func (g *Gate) Arm() <-chan struct{} {
	for {
		if p := g.armed.Load(); p != nil {
			return *p // join the parked cohort: one load
		}
		ch := make(chan struct{})
		p := &ch
		if g.armed.CompareAndSwap(nil, p) {
			return ch
		}
		// CAS lost: either another waiter armed first (next load joins
		// it) or a publisher cleared a just-closed channel (next load
		// is nil and the CAS retries). Each retry implies another
		// party made progress, and the caller's predicate recheck
		// bounds the loop in practice: this is the waiter slow path.
	}
}

// Wake wakes every parked waiter on g and its ancestors. With no waiter
// parked the cost is one atomic load per gate in the chain — zero RMW
// instructions and zero allocations, preserving the publisher's
// wait-free zero-RMW publish path. With waiters parked it swaps the
// channel out and closes it: one RMW plus one close, amortized over
// every waiter in the cohort.
//
// Wake must be ordered after the publication it announces (an atomic
// store or RMW on the published state), so that a waiter woken by the
// close — or one that never slept because its post-Arm recheck saw the
// publication — observes the new state.
//
// Wake returns the number of broadcast channels it closed (0 on the
// no-waiter fast path), so publishers can count waking publications
// without re-probing the gate.
func (g *Gate) Wake() int { return g.WakeAt(0) }

// WakeAt is Wake with a caller-supplied wake stamp: gate trees use it
// to propagate the *origin* publish time down a cascade so leaf
// watchers measure full publish→observe latency rather than the last
// relay hop. stamp 0 means "now" (plain Wake).
func (g *Gate) WakeAt(stamp int64) int {
	woke := 0
	for gg := g; gg != nil; gg = gg.parent {
		if gg.armed.Load() == nil {
			continue // fast path: nobody parked on this gate
		}
		// Armed slow path: stamp the wake time before the swap so the
		// channel close's happens-before edge publishes the stamp to
		// every waiter it wakes (their latency sample is close-to-
		// observe, the backpressure half of the park→publish→observe
		// path).
		faultWakeSwap.Hit()
		if stamp != 0 {
			gg.stamp.Store(stamp)
		} else {
			gg.stamp.Store(nowNanos())
		}
		// Swap-then-close: the channel leaves the gate before it
		// closes, so no waiter can be handed an already-closed channel
		// *through the gate* (one obtained just before the swap wakes
		// immediately, which the predicate loop absorbs). Swap rather
		// than store-nil keeps this correct even when several
		// publishers share a parent gate.
		if p := gg.armed.Swap(nil); p != nil {
			close(*p)
			woke++
		}
	}
	return woke
}

// disarm clears the gate's armed pointer if it still holds ch — the
// exiting relay's cleanup for an interior gate it owns exclusively. A
// concurrent Wake that already swapped the channel out wins the race
// harmlessly (the CAS fails and nothing is disarmed).
func (g *Gate) disarm(ch <-chan struct{}) {
	if p := g.armed.Load(); p != nil && *p == ch {
		g.armed.CompareAndSwap(p, nil)
	}
}

// Fan returns the gate's wakeup tree, creating one with the given
// topology on first call (see NewTree for the bounds). Concurrent
// first calls race benignly — one tree wins the CAS, losers are
// discarded before any relay spawns — and later calls return the
// cached tree regardless of the arity/depth they ask for: a gate has
// one fan shape, fixed by whoever attaches it first.
func (g *Gate) Fan(arity, depth int) *Tree {
	if t := g.fan.Load(); t != nil {
		return t
	}
	t := NewTree(g, arity, depth)
	if g.fan.CompareAndSwap(nil, t) {
		return t
	}
	return g.fan.Load()
}

// Fanned returns the gate's wakeup tree if one has been attached, nil
// otherwise — the stats walkers' no-allocate probe.
func (g *Gate) Fanned() *Tree { return g.fan.Load() }

// WakeStamp returns the monotonic nanosecond time of the last waking
// publish through g, 0 if none has happened. Woken waiters read it to
// compute their wakeup latency; the close that woke them orders the
// stamp before their load.
func (g *Gate) WakeStamp() int64 { return g.stamp.Load() }

// Armed reports whether a waiter is currently parked (or arming) on g.
// Test and diagnostics hook; the answer is immediately stale.
func (g *Gate) Armed() bool { return g.armed.Load() != nil }

// Await parks on one or two gates until changed reports true or ctx is
// done, packaging the arm → recheck → block protocol. changed must be
// monotone over the caller's wait (once true it stays true until the
// caller acts) and is evaluated under no lock; its loads of published
// state are what the arm-then-recheck ordering protects.
//
// Two gates is the most any composition in this repository parks on (a
// keyed watch parks on the key's value gate and the shard's directory
// gate at once; tree watchers park on a single leaf), and the park is an
// unrolled allocation-free select. Await panics on zero gates, which
// could never wake, and on more than two.
func Await(ctx context.Context, changed func() bool, gates ...*Gate) error {
	return AwaitStats(ctx, changed, nil, gates...)
}

// AwaitStats is Await with per-watcher telemetry: each pass through the
// park→wake edge records one wakeup on ws, a wakeup-latency sample
// against the waking gate's stamp, and a spurious wakeup when the wake
// did not satisfy the predicate. ws may be nil (plain Await). All
// recording happens on the waiter's side of the park — the publish path
// is untouched beyond the stamp it already writes when a waiter is
// parked.
func AwaitStats(ctx context.Context, changed func() bool, ws *WatchStats, gates ...*Gate) error {
	if len(gates) == 0 || len(gates) > 2 {
		panic("notify: Await parks on one or two gates")
	}
	// No per-iteration allocation beyond the shared broadcast channel
	// Arm may create.
	for {
		if changed() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		c0 := gates[0].Arm()
		var c1 <-chan struct{}
		if len(gates) == 2 {
			c1 = gates[1].Arm()
		}
		// The decisive recheck: armed before, loaded after. A publish
		// missed here must observe the armed gate and close it.
		if changed() {
			return nil
		}
		var woke *Gate
		select {
		case <-c0:
			woke = gates[0]
		case <-c1: // nil when one gate: never ready
			woke = gates[1]
		case <-ctx.Done():
			return ctx.Err()
		}
		noteWake(ws, woke, changed)
	}
}

// noteWake records one park→wake edge on ws: the wakeup, its latency
// against the waking gate's stamp, and whether it was spurious. The
// caller falls through to its loop head afterwards — the predicate is
// monotone, so the extra changed() there costs one pass and keeps one
// exit path.
func noteWake(ws *WatchStats, woke *Gate, changed func() bool) {
	if ws == nil {
		return
	}
	ws.wakeups.Add(1)
	if stamp := woke.WakeStamp(); stamp != 0 {
		now := nowNanos()
		ws.latency.RecordSince(stamp, now)
		// Flight-recorder hook: one StageWake event per waking park,
		// spanned by the origin publish stamp WakeAt propagated. The
		// ring is owner-plain (this watcher goroutine is the ring's
		// single writer), so the record is four atomic stores and a
		// head publish — no RMW, no allocation. lastWake is plain for
		// the same reason: only this goroutine reads it back (to span
		// downstream stages like the SSE flush).
		ws.ring.Record(trace.StageWake, 0, stamp, uint64(now-stamp))
		ws.lastWake = stamp
	}
	if !changed() {
		ws.spurious.Add(1)
	}
}

// WaitEpoch parks on the given gates until epoch() differs from seen,
// returning the epoch it observed — the shared engine behind
// Sequencer.WaitStats, the (M,N) composite wait, and tree-leaf parks.
// epoch must be monotone in the "eventually differs" sense (it is a
// publication counter, or a sum of them). The observed epoch is noted
// as published on ws when ws is non-nil.
func WaitEpoch(ctx context.Context, epoch func() uint64, seen uint64, ws *WatchStats, gates ...*Gate) (uint64, error) {
	var e uint64
	err := AwaitStats(ctx, func() bool {
		e = epoch()
		return e != seen
	}, ws, gates...)
	if err != nil {
		return seen, err
	}
	if ws != nil {
		ws.NoteSeen(e)
	}
	return e, nil
}

// Sequencer is the per-register publication sequencer: a monotonic
// epoch advanced by the register's single publisher on every
// publication, plus the broadcast Gate waiters park on. The zero value
// is ready to use (epoch 0 = "nothing published yet", no gate).
//
// The gate is allocated on demand: Gate, Wait, Fan and Chain install it
// (one CAS, first caller wins), the read-only probes (Gated, Fanned,
// Stats) never do. A register that nobody watches therefore carries a
// 40-byte sequencer instead of a padded gate, which is what keeps a
// cold map key small.
//
// Concurrency contract: exactly one goroutine calls Publish at a time —
// the same single-writer contract as the (1,N) register it instruments,
// which is what lets the epoch advance with a plain store instead of an
// RMW. Any number of goroutines may call Epoch, Wait and Gate().Arm.
type Sequencer struct {
	// epoch is unpadded: only the publisher stores it, right after the
	// register's own publication RMW, and only watchers load it — no
	// reader RMWs it, so it has no contended line to be isolated from.
	epoch atomic.Uint64
	// gate is nil until the first waiter (or Chain) installs it; it
	// never changes afterwards.
	gate atomic.Pointer[Gate]
	// local mirrors epoch on the publisher's side so Publish needs no
	// atomic read-modify-write — the publisher owns the counter.
	local uint64
	// wakes counts waking publications (a waiter was parked and the
	// gate closed) — publisher-owned, advanced only on the armed slow
	// path, so the no-waiter publish cost is unchanged.
	wakes obs.Cell
}

// Publish records one publication: it advances the epoch (one atomic
// store) and wakes parked waiters (one atomic load of the gate pointer,
// one more per installed gate in the chain; a swap and a channel close
// only when someone is parked). Call it after the publication itself is
// visible (after the register's publish store/RMW), from the single
// publisher goroutine.
func (s *Sequencer) Publish() { s.PublishAt(0) }

// PublishAt is Publish with a caller-supplied origin stamp (trace.Now
// at the moment the publication became visible): the stamp rides the
// gate wake — and, through WakeAt, the whole fan-out cascade — so leaf
// watchers and the flight recorder attribute latency to the *origin*
// publish, not the last relay hop. stamp 0 means "unstamped" (plain
// Publish): the no-waiter publish path then never reads the clock.
//
// A nil gate pointer proves no waiter can be parked: a waiter installs
// the gate before it arms and rechecks the epoch, so one whose install
// this load missed loads the epoch after the store above (DESIGN.md
// §8.2).
func (s *Sequencer) PublishAt(stamp int64) {
	s.local++
	s.epoch.Store(s.local)
	faultPublishEpoch.Hit()
	if g := s.gate.Load(); g != nil && g.WakeAt(stamp) > 0 {
		s.wakes.Add(1)
	}
}

// Wakes reports how many publications found a waiter parked and woke
// it: any goroutine, one atomic load.
func (s *Sequencer) Wakes() uint64 { return s.wakes.Load() }

// Stats returns the sequencer's live counters as a Stats-tree node:
// publication epoch, waking publications, and whether a waiter is
// currently parked. Safe from any goroutine at any time; it never
// installs the gate.
func (s *Sequencer) Stats() obs.Snapshot {
	sn := obs.Snapshot{Name: "notify"}
	sn.Put("epoch", s.epoch.Load())
	sn.Put("wakes", s.wakes.Load())
	armed := uint64(0)
	if g := s.gate.Load(); g != nil && g.Armed() {
		armed = 1
	}
	sn.Put("gate_armed", armed)
	if t := s.Fanned(); t != nil {
		sn.Children = append(sn.Children, t.Stats())
	}
	return sn
}

// Epoch returns the current publication count: one atomic load. Two
// different values mean a publication happened in between; equal values
// mean none did (the epoch is monotone and only the publisher advances
// it).
func (s *Sequencer) Epoch() uint64 { return s.epoch.Load() }

// Gate returns the sequencer's parking gate, installing it on first
// call — the waiter's side of the lazy allocation. Callers composing
// multi-gate waits (see Await) get the gate the publisher wakes.
func (s *Sequencer) Gate() *Gate {
	if g := s.gate.Load(); g != nil {
		return g
	}
	s.gate.CompareAndSwap(nil, new(Gate)) // a lost race keeps the winner's
	return s.gate.Load()
}

// Gated returns the sequencer's gate if one has been installed, nil
// otherwise — the stats walkers' and tests' no-allocate probe.
func (s *Sequencer) Gated() *Gate { return s.gate.Load() }

// Fanned returns the wakeup tree attached to the sequencer's gate, nil
// when no gate or no tree exists. Like Gated it never installs.
func (s *Sequencer) Fanned() *Tree {
	if g := s.gate.Load(); g != nil {
		return g.Fanned()
	}
	return nil
}

// Chain installs the sequencer's gate and links it to parent (see
// Gate.Chain), so every publication wakes the parent's waiters.
// Wiring-time only.
func (s *Sequencer) Chain(parent *Gate) { s.Gate().Chain(parent) }

// Wait blocks until the epoch differs from seen or ctx is done,
// returning the epoch it observed. A caller that snapshots Epoch
// *before* reading the register and Waits on that snapshot is
// guaranteed at-least-once delivery: any publication after the
// snapshot makes Wait return, and the caller's re-read then observes
// it (or something newer — latest-value conflation).
func (s *Sequencer) Wait(ctx context.Context, seen uint64) (uint64, error) {
	return s.WaitStats(ctx, seen, nil)
}

// WaitStats is Wait with per-watcher telemetry: park/wake accounting
// goes through AwaitStats, and the epoch observed at return is noted as
// published on ws (the caller notes delivery once it has actually
// yielded the value — see WatchStats.NoteDelivered). ws may be nil.
func (s *Sequencer) WaitStats(ctx context.Context, seen uint64, ws *WatchStats) (uint64, error) {
	return WaitEpoch(ctx, s.Epoch, seen, ws, s.Gate())
}

// Fan returns the sequencer gate's wakeup tree, attaching one (and the
// gate) on first call (see Gate.Fan). Large watcher populations
// subscribe a leaf and park there instead of on the shared gate,
// bounding every wakeup cohort at watchers/leaves while the publish
// path keeps its flat-gate cost.
func (s *Sequencer) Fan(arity, depth int) *Tree { return s.Gate().Fan(arity, depth) }
