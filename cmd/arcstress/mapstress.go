package main

// Map-level chaos scenarios: where the register scenarios (stall,
// churn, steal) adversarially exercise one ARC register, these drive
// the sharded map through its robustness machinery — directory
// compaction epochs, corrupt-shard latching and repair, and the
// deterministic fault-injection points in internal/regmap:
//
//	dirchurn           — delete/recreate churn against a shrunk
//	                     directory ceiling with yield/stall/crash
//	                     faults armed; the writer recovers every
//	                     injected crash with a repair compaction and
//	                     readers verify torn-read-free, per-key
//	                     version-monotone observations throughout.
//	corrupt-repair     — corrupt shard directories are injected on a
//	                     schedule; spinning readers must latch with
//	                     ErrShardCorrupt, a parked watcher must survive
//	                     the episode, and one compaction epoch must
//	                     repair everyone.
//	compact-under-watch— a parked watcher rides ≥10 compaction epochs
//	                     driven by sibling-key churn: no spurious
//	                     wakeup deliveries, no misses, versions
//	                     monotone, and the final value arrives.
//	watchstorm         — slow watchers against a fast writer with
//	                     stall faults armed inside the notify
//	                     sequencer (publish-side epoch crossing, gate
//	                     swap) while a stats walker continuously
//	                     snapshots the tree; asserts the backpressure
//	                     ledgers record real conflation and lag and
//	                     every accepted stats snapshot is internally
//	                     consistent.
//	gatetree           — a seeded random wakeup-tree topology under
//	                     relay-cascade fault injection: parked
//	                     watchers, subscription churn and a ledger
//	                     walker race a back-to-back writer, ending
//	                     with a final-value no-lost-wakeup gate and a
//	                     relay drain check; see gatetree.go.
//	servechaos         — the HTTP serving layer under connection-level
//	                     faults (slow clients, mid-response
//	                     disconnects, accept stalls); see
//	                     servestress.go.
//
// All scenarios are seeded (-seed) and run their fault schedules
// deterministically; -faultcov additionally fails the run if any
// registered regmap, notify or serve fault point was never armed by
// any schedule.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/fault"
	"arcreg/internal/membuf"
	"arcreg/internal/notify"
	"arcreg/internal/regmap"
)

var mapScenarios = map[string]func(seed uint64, duration time.Duration) int{
	"dirchurn":            runDirChurn,
	"corrupt-repair":      runCorruptRepair,
	"compact-under-watch": runCompactUnderWatch,
	"watchstorm":          runWatchStorm,
	"gatetree":            runGateTree,
	"servechaos":          runServeChaos,
	"tracestorm":          runTraceStorm,
}

func isMapScenario(name string) bool {
	_, ok := mapScenarios[name]
	return ok
}

// mapChaos is the shared failure sink for one map scenario.
type mapChaos struct {
	stop     atomic.Bool
	failures atomic.Uint64
	reads    atomic.Uint64
	writes   atomic.Uint64
	episodes atomic.Uint64 // ErrShardCorrupt observations
	crashes  atomic.Uint64 // fault.Crashed recoveries
	repairs  atomic.Uint64 // reader latches cleared (summed at close)
	mu       sync.Mutex
	errs     []string
}

func (s *mapChaos) fail(format string, args ...any) {
	s.failures.Add(1)
	s.mu.Lock()
	if len(s.errs) < 16 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

func (s *mapChaos) report(name string, extra string) int {
	fmt.Printf("arcstress: map scenario=%s\n", name)
	fmt.Printf("  totals: %d reads, %d writes, %d corrupt episodes, %d crash recoveries, %d repairs%s\n",
		s.reads.Load(), s.writes.Load(), s.episodes.Load(), s.crashes.Load(), s.repairs.Load(), extra)
	if f := s.failures.Load(); f > 0 {
		fmt.Printf("  FAILURES: %d\n", f)
		for _, e := range s.errs {
			fmt.Println("   ", e)
		}
		return 1
	}
	fmt.Println("  OK: no invariant violations observed")
	return 0
}

// recoverCrashed runs op, converting an injected fault.Crashed panic
// into a reported recovery; any other panic propagates.
func recoverCrashed(s *mapChaos, op func() error) (err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fault.Crashed); !ok {
				panic(r)
			}
			s.crashes.Add(1)
			crashed = true
		}
	}()
	return op(), false
}

// repairCompact compacts until the compaction itself survives its own
// armed crash points — the writer's universal post-crash recovery.
func repairCompact(s *mapChaos, m *regmap.Map) {
	for {
		if err, crashed := recoverCrashed(s, m.Compact); !crashed {
			if err != nil {
				s.fail("repair compaction: %v", err)
			}
			return
		}
	}
}

// chaosReader spins Gets over keys, verifying every observed value
// (torn-read detection) and per-key version monotonicity. Corrupt
// latches are counted and — when allowCorrupt — tolerated as episodes;
// the next publication repairs them.
func chaosReader(s *mapChaos, m *regmap.Map, id int, seed uint64, keys []string, allowCorrupt bool) func() {
	rd, err := m.NewReader()
	if err != nil {
		s.fail("reader %d: %v", id, err)
		return func() {}
	}
	return func() {
		defer func() {
			s.repairs.Add(rd.Stats().Repairs)
			rd.Close()
		}()
		rng := seed*0x9e3779b97f4a7c15 + uint64(id)
		last := make(map[string]uint64, len(keys))
		var ops uint64
		for !s.stop.Load() {
			// Cooperative yield so spinning readers cannot starve the
			// (fault-yielded) writer on small machines.
			if ops++; ops%512 == 0 {
				runtime.Gosched()
			}
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			key := keys[rng%uint64(len(keys))]
			v, err := rd.Get(key)
			switch {
			case errors.Is(err, regmap.ErrKeyNotFound):
				continue // deleted; recreation will carry a newer version
			case errors.Is(err, regmap.ErrShardCorrupt):
				s.episodes.Add(1)
				if !allowCorrupt {
					s.fail("reader %d: unexpected corrupt latch: %v", id, err)
					return
				}
				continue
			case err != nil:
				s.fail("reader %d: Get(%s): %v", id, key, err)
				return
			}
			ver, verr := membuf.Verify(v)
			if verr != nil {
				s.fail("reader %d: torn read of %s: %v", id, key, verr)
				return
			}
			if ver < last[key] {
				s.fail("reader %d: %s version regressed %d after %d", id, key, ver, last[key])
				return
			}
			last[key] = ver
			s.reads.Add(1)
		}
	}
}

// runDirChurn is the log-exhaustion scenario: a shrunk directory
// ceiling forces compaction epochs continuously while yield, stall and
// crash faults fire on a deterministic schedule. Writes must keep
// succeeding (auto-compaction absorbs the churn), every injected crash
// must be recoverable by one repair compaction, and readers must never
// observe a torn value or a version regression.
func runDirChurn(seed uint64, duration time.Duration) int {
	restore := regmap.SetDirCapacity(1024)
	defer restore()
	sched, err := fault.NewSchedule(seed,
		fault.Rule{Point: regmap.FaultValuePublish, Kind: fault.Yield, Every: 64},
		fault.Rule{Point: regmap.FaultDirPublish, Kind: fault.Yield, Every: 64},
		fault.Rule{Point: regmap.FaultCompactPublish, Kind: fault.Yield, Every: 8},
		fault.Rule{Point: regmap.FaultDirPrepublish, Kind: fault.Stall, Every: 4096, Stall: 50 * time.Microsecond},
		fault.Rule{Point: regmap.FaultDeleteRecycle, Kind: fault.Crash, Every: 997},
		fault.Rule{Point: regmap.FaultDirPrepublish, Kind: fault.Crash, Every: 1499},
		fault.Rule{Point: regmap.FaultCompactBuilt, Kind: fault.Crash, Every: 23},
	)
	if err != nil {
		fmt.Println("arcstress: dirchurn:", err)
		return 2
	}
	m, err := regmap.New(regmap.Config{Shards: 2, MaxReaders: 4, MaxValueSize: 64})
	if err != nil {
		fmt.Println("arcstress: dirchurn:", err)
		return 2
	}
	const nkeys = 16
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("churn-%02d", i)
	}
	s := &mapChaos{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		body := chaosReader(s, m, i, seed, keys, false)
		wg.Add(1)
		go func() { defer wg.Done(); body() }()
	}
	sched.Arm()
	// Writer: versioned sets with a rolling delete/recreate pattern.
	// Each operation may crash at an armed point; recovery is always
	// the same — compact, which republishes the writer's tables.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		var version uint64
		var round uint64
		for !s.stop.Load() {
			round++
			key := keys[round%nkeys]
			version++
			membuf.Encode(buf, version)
			if err, crashed := recoverCrashed(s, func() error { return m.Set(key, buf) }); crashed {
				repairCompact(s, m)
				continue
			} else if err != nil {
				s.fail("writer: Set(%s): %v", key, err)
				return
			}
			s.writes.Add(1)
			// Delete-heavy cadence: only creations and tombstones append
			// to the directory log, so recycling every other round is
			// what actually drives the ceiling and its compactions.
			if round%2 == 0 {
				victim := keys[(round/2)%nkeys]
				if err, crashed := recoverCrashed(s, func() error { return m.Delete(victim) }); crashed {
					repairCompact(s, m)
				} else if err != nil && !errors.Is(err, regmap.ErrKeyNotFound) {
					s.fail("writer: Delete(%s): %v", victim, err)
					return
				}
			}
		}
	}()
	time.Sleep(duration)
	s.stop.Store(true)
	wg.Wait()
	sched.Disarm()
	ws := m.WriteStats()
	if ws.Compactions < 10 {
		s.fail("only %d compaction epochs under ceiling churn, want >= 10", ws.Compactions)
	}
	if s.crashes.Load() == 0 {
		s.fail("crash schedule never fired (writes=%d)", s.writes.Load())
	}
	return s.report("dirchurn", fmt.Sprintf(", %d compactions, %d dir bytes", ws.Compactions, ws.DirBytes))
}

// runCorruptRepair injects corrupt directory publications on a schedule
// and requires the full repair story: spinning readers latch with
// ErrShardCorrupt while the shard is quiet, a parked watcher observes
// the episode without dying, and one compaction epoch restores
// everyone — including the watcher, which must deliver post-repair
// values.
func runCorruptRepair(seed uint64, duration time.Duration) int {
	m, err := regmap.New(regmap.Config{Shards: 2, MaxReaders: 5, MaxValueSize: 64})
	if err != nil {
		fmt.Println("arcstress: corrupt-repair:", err)
		return 2
	}
	const stable = "stable"
	keys := []string{stable, "peer-0", "peer-1", "peer-2"}
	var version atomic.Uint64
	set := func(key string) error {
		b := make([]byte, 64)
		membuf.Encode(b, version.Add(1))
		return m.Set(key, b)
	}
	for _, k := range keys {
		if err := set(k); err != nil {
			fmt.Println("arcstress: corrupt-repair:", err)
			return 2
		}
	}
	s := &mapChaos{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		body := chaosReader(s, m, i, seed, keys, true)
		wg.Add(1)
		go func() { defer wg.Done(); body() }()
	}
	// Parked watcher on the stable key: corruption must degrade its
	// stream (one episode event), never end it, and repaired values
	// must keep flowing with monotone versions.
	wrd, err := m.NewReader()
	if err != nil {
		fmt.Println("arcstress: corrupt-repair:", err)
		return 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	var lastWatched atomic.Uint64
	var watchEpisodes atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			s.repairs.Add(wrd.Stats().Repairs)
			wrd.Close()
		}()
		for v, err := range wrd.Watch(ctx, stable) {
			switch {
			case errors.Is(err, context.Canceled):
				return
			case errors.Is(err, regmap.ErrShardCorrupt):
				watchEpisodes.Add(1)
				s.episodes.Add(1)
			case err != nil:
				s.fail("watcher: %v", err)
				return
			default:
				ver, verr := membuf.Verify(v)
				if verr != nil {
					s.fail("watcher: torn value: %v", verr)
					return
				}
				if prev := lastWatched.Load(); ver < prev {
					s.fail("watcher: version regressed %d after %d", ver, prev)
					return
				}
				lastWatched.Store(ver)
			}
		}
	}()
	// Writer churn behind a mutex the chaos loop can seize: shards are
	// single-writer, so injection and repair compaction (both publisher
	// operations) must hold the writer role — and an injection window
	// must be quiet anyway, since a corrupt publication only latches
	// readers until the next genuine publish.
	var wmu sync.Mutex
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		var round uint64
		for !s.stop.Load() {
			round++
			key := keys[round%uint64(len(keys))]
			wmu.Lock()
			err := set(key)
			wmu.Unlock()
			if err != nil {
				s.fail("writer: Set(%s): %v", key, err)
				return
			}
			s.writes.Add(1)
		}
	}()
	deadline := time.Now().Add(duration)
	injections := 0
	for time.Now().Before(deadline) && s.failures.Load() == 0 {
		time.Sleep(20 * time.Millisecond)
		wmu.Lock()
		before := s.episodes.Load()
		if err := m.InjectDirectoryCorruption(m.ShardOf(stable)); err != nil {
			s.fail("inject: %v", err)
			wmu.Unlock()
			break
		}
		injections++
		// With the writer held off, the spinning readers must latch.
		latched := false
		for wait := time.Now().Add(500 * time.Millisecond); time.Now().Before(wait); {
			if s.episodes.Load() > before {
				latched = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		if !latched {
			s.fail("injection %d: no reader latched ErrShardCorrupt within 500ms", injections)
			wmu.Unlock()
			break
		}
		// One compaction epoch is the repair.
		if err := m.Compact(); err != nil {
			s.fail("repair compaction: %v", err)
			wmu.Unlock()
			break
		}
		wmu.Unlock()
	}
	// Quiesce the writer (shards are single-writer: the final Set below
	// must not race the churn goroutine), then prove the watcher
	// resumed: a final publication must reach it through however many
	// episodes it absorbed.
	s.stop.Store(true)
	writerWg.Wait()
	final := version.Load() + 1
	fb := make([]byte, 64)
	membuf.Encode(fb, final)
	version.Store(final)
	if err := m.Set(stable, fb); err != nil {
		s.fail("final Set: %v", err)
	}
	delivered := false
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); {
		if lastWatched.Load() >= final {
			delivered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !delivered {
		s.fail("watcher never delivered the post-repair value (saw %d, want >= %d)", lastWatched.Load(), final)
	}
	cancel()
	wg.Wait()
	if injections == 0 {
		s.fail("duration too short: no corruption injected")
	}
	if s.repairs.Load() == 0 {
		s.fail("no reader counted a repair across %d injections", injections)
	}
	return s.report("corrupt-repair",
		fmt.Sprintf(", %d injections, %d watcher episodes", injections, watchEpisodes.Load()))
}

// runCompactUnderWatch parks a watcher on one key and drives ≥10
// compaction epochs underneath it with sibling-key churn against a
// shrunk ceiling. Epoch bumps must be invisible to the watcher (no
// spurious deliveries — every event is a genuinely newer version), and
// the final publication must arrive.
func runCompactUnderWatch(seed uint64, duration time.Duration) int {
	restore := regmap.SetDirCapacity(1024)
	defer restore()
	m, err := regmap.New(regmap.Config{Shards: 1, MaxReaders: 3, MaxValueSize: 64})
	if err != nil {
		fmt.Println("arcstress: compact-under-watch:", err)
		return 2
	}
	const watched = "watched"
	siblings := make([]string, 8)
	for i := range siblings {
		siblings[i] = fmt.Sprintf("sibling-%d", i)
	}
	var version uint64
	set := func(key string) error {
		b := make([]byte, 64)
		version++
		membuf.Encode(b, version)
		return m.Set(key, b)
	}
	if err := set(watched); err != nil {
		fmt.Println("arcstress: compact-under-watch:", err)
		return 2
	}
	s := &mapChaos{}
	body := chaosReader(s, m, 0, seed, append([]string{watched}, siblings...), false)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); body() }()
	wrd, err := m.NewReader()
	if err != nil {
		fmt.Println("arcstress: compact-under-watch:", err)
		return 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	var lastWatched atomic.Uint64
	var deliveries atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer wrd.Close()
		for v, err := range wrd.Watch(ctx, watched) {
			if errors.Is(err, context.Canceled) {
				return
			}
			if err != nil {
				s.fail("watcher: %v", err) // the key is never deleted, shards never corrupted
				return
			}
			ver, verr := membuf.Verify(v)
			if verr != nil {
				s.fail("watcher: torn value: %v", verr)
				return
			}
			if prev := lastWatched.Load(); ver <= prev && deliveries.Load() > 0 {
				s.fail("watcher: spurious delivery: version %d after %d (compaction epochs must be invisible)", ver, prev)
				return
			}
			lastWatched.Store(ver)
			deliveries.Add(1)
		}
	}()
	deadline := time.Now().Add(duration)
	var round uint64
	for time.Now().Before(deadline) && s.failures.Load() == 0 {
		round++
		key := siblings[round%uint64(len(siblings))]
		if err := set(key); err != nil {
			s.fail("writer: Set(%s): %v", key, err)
			break
		}
		s.writes.Add(1)
		if round%2 == 0 {
			victim := siblings[(round/2)%uint64(len(siblings))]
			if err := m.Delete(victim); err != nil && !errors.Is(err, regmap.ErrKeyNotFound) {
				s.fail("writer: Delete(%s): %v", victim, err)
				break
			}
		}
		if round%500 == 0 {
			if err := set(watched); err != nil {
				s.fail("writer: Set(%s): %v", watched, err)
				break
			}
			s.writes.Add(1)
		}
	}
	final := version + 1
	fb := make([]byte, 64)
	membuf.Encode(fb, final)
	if err := m.Set(watched, fb); err != nil {
		s.fail("final Set: %v", err)
	}
	delivered := false
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); {
		if lastWatched.Load() >= final {
			delivered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !delivered {
		s.fail("watcher missed the final value across compactions (saw %d, want >= %d)", lastWatched.Load(), final)
	}
	s.stop.Store(true)
	cancel()
	wg.Wait()
	ws := m.WriteStats()
	if ws.Compactions < 10 {
		s.fail("only %d compaction epochs under the watcher, want >= 10", ws.Compactions)
	}
	return s.report("compact-under-watch",
		fmt.Sprintf(", %d compactions, %d watch deliveries", ws.Compactions, deliveries.Load()))
}

// runWatchStorm is the backpressure-telemetry scenario: deliberately
// slow watchers park through a fast-churning single-shard map while
// stall injection on the notify sequencer's publish/wake crossing
// (notify/publish-epoch, notify/wake-swap) widens the lost-wakeup
// window the protocol's arm-then-recheck discipline must close. A
// stats walker hammers Map.Stats throughout. The run fails if:
//
//   - any live watcher's ledger ever shows observed > published (the
//     backpressure invariant a torn collect could invert);
//   - any Map.Stats snapshot tears across a compaction (per-shard
//     cgen != compactions);
//   - a watcher observes a torn value or a version regression;
//   - the storm produced no conflation or no wakeups (the scenario
//     failed to generate backpressure), the schedule never fired, or
//     churn forced no compaction epoch.
func runWatchStorm(seed uint64, duration time.Duration) int {
	restore := regmap.SetDirCapacity(1024)
	defer restore()
	sched, err := fault.NewSchedule(seed,
		fault.Rule{Point: notify.FaultPublishEpoch, Kind: fault.Stall, Every: 512, Stall: 100 * time.Microsecond},
		fault.Rule{Point: notify.FaultWakeSwap, Kind: fault.Stall, Every: 64, Stall: 100 * time.Microsecond},
	)
	if err != nil {
		fmt.Println("arcstress: watchstorm:", err)
		return 2
	}
	m, err := regmap.New(regmap.Config{Shards: 1, MaxReaders: 6, MaxValueSize: 64})
	if err != nil {
		fmt.Println("arcstress: watchstorm:", err)
		return 2
	}
	watched := []string{"storm-0", "storm-1", "storm-2"}
	churn := []string{"churn-0", "churn-1", "churn-2", "churn-3"}
	var version uint64
	set := func(key string) error {
		b := make([]byte, 64)
		version++
		membuf.Encode(b, version)
		return m.Set(key, b)
	}
	for _, k := range watched {
		if err := set(k); err != nil {
			fmt.Println("arcstress: watchstorm:", err)
			return 2
		}
	}
	s := &mapChaos{}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	// Slow watchers: each parks on one key and spends a millisecond
	// "processing" every delivery — against a back-to-back writer that
	// guarantees conflation and a live mid-storm lag signal.
	for i, key := range watched {
		wrd, err := m.NewReader()
		if err != nil {
			fmt.Println("arcstress: watchstorm:", err)
			cancel()
			return 2
		}
		wg.Add(1)
		go func(id int, key string, wrd *regmap.Reader) {
			defer wg.Done()
			defer wrd.Close()
			var last uint64
			for v, err := range wrd.Watch(ctx, key) {
				if errors.Is(err, context.Canceled) {
					return
				}
				if err != nil {
					s.fail("watcher %d: %v", id, err) // keys are never deleted, shards never corrupted
					return
				}
				ver, verr := membuf.Verify(v)
				if verr != nil {
					s.fail("watcher %d: torn value: %v", id, verr)
					return
				}
				if ver < last {
					s.fail("watcher %d: version regressed %d after %d", id, ver, last)
					return
				}
				last = ver
				s.reads.Add(1)
				time.Sleep(time.Millisecond) // the slow consumer
			}
		}(i, key, wrd)
	}

	// Stats walker: every Map.Stats must be internally consistent and
	// every live ledger must satisfy observed ≤ published, while the
	// storm runs.
	var walks atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !s.stop.Load() {
			sn := m.Stats()
			node := sn.Child("shard0")
			if node == nil {
				s.fail("walker: stats lost shard0")
				return
			}
			cgen, _ := node.Get("cgen")
			comp, _ := node.Get("compactions")
			if cgen != comp {
				s.fail("walker: torn stats: cgen %d != compactions %d", cgen, comp)
				return
			}
			m.WatchTracker().Each(func(ws *notify.WatchStats) {
				if o, p := ws.Observed(), ws.Published(); o > p {
					s.fail("walker: ledger inverted: observed %d > published %d", o, p)
				}
			})
			walks.Add(1)
		}
	}()

	sched.Arm()
	// Writer: back-to-back sets on the watched keys (the storm) plus
	// delete/recreate churn that overflows the shrunk ceiling and
	// forces compaction epochs under the walker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var round uint64
		for _, k := range churn {
			if err := set(k); err != nil {
				s.fail("writer: Set(%s): %v", k, err)
				return
			}
		}
		for !s.stop.Load() {
			round++
			if err := set(watched[round%uint64(len(watched))]); err != nil {
				s.fail("writer: %v", err)
				return
			}
			s.writes.Add(1)
			if round%8 == 0 {
				victim := churn[(round/8)%uint64(len(churn))]
				if err := m.Delete(victim); err != nil && !errors.Is(err, regmap.ErrKeyNotFound) {
					s.fail("writer: Delete(%s): %v", victim, err)
					return
				}
				if err := set(victim); err != nil {
					s.fail("writer: %v", err)
					return
				}
			}
		}
	}()

	time.Sleep(duration)
	s.stop.Store(true)
	cancel()
	wg.Wait()
	sched.Disarm()

	// The retired ledgers carry the storm's totals.
	tsn := m.WatchTracker().Stats()
	conflated, _ := tsn.Get("conflated")
	wakeups, _ := tsn.Get("wakeups")
	if conflated == 0 {
		s.fail("storm conflated nothing across %d writes", s.writes.Load())
	}
	if wakeups == 0 {
		s.fail("watchers parked through the storm without a wakeup")
	}
	if walks.Load() == 0 {
		s.fail("stats walker never completed a snapshot")
	}
	if sched.Fired() == 0 {
		s.fail("notify fault schedule never fired (writes=%d)", s.writes.Load())
	}
	ws := m.WriteStats()
	if ws.Compactions == 0 {
		s.fail("churn forced no compaction epoch under the walker")
	}
	return s.report("watchstorm",
		fmt.Sprintf(", %d conflated, %d wakeups, %d stats walks, %d faults fired, %d compactions",
			conflated, wakeups, walks.Load(), sched.Fired(), ws.Compactions))
}

// checkFaultCoverage fails the run if any regmap, notify, serve or
// trace fault point was never armed by a schedule during this process —
// a registered-but-dead injection point is a hole in the chaos surface.
func checkFaultCoverage() int {
	armed, unarmed := fault.Coverage()
	var dead []string
	for _, name := range unarmed {
		if strings.HasPrefix(name, "regmap/") || strings.HasPrefix(name, "notify/") ||
			strings.HasPrefix(name, "serve/") || strings.HasPrefix(name, "trace/") {
			dead = append(dead, name)
		}
	}
	if len(dead) > 0 {
		fmt.Printf("arcstress: fault coverage: %d fault points never armed: %s\n",
			len(dead), strings.Join(dead, ", "))
		return 1
	}
	fmt.Printf("arcstress: fault coverage: all regmap, notify, serve and trace points armed (%d total armed)\n", len(armed))
	return 0
}
