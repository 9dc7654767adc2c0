// Command arcstress runs long-horizon failure-injection stress against a
// register implementation. Where arccheck records a bounded history and
// decides atomicity offline, arcstress runs open-ended adversarial
// scenarios with online invariant checking, exercising the situations the
// paper's wait-freedom guarantees are about:
//
//	stall  — a rotating subset of readers pins a snapshot and goes silent;
//	         the writer and the remaining readers must keep progressing
//	         (the N+2 buffer bound at work).
//	churn  — reader handles are continuously opened, used and closed while
//	         the writer runs; capacity must never leak.
//	steal  — all workers suffer CPU-steal injection (the virtualized
//	         platform of Figure 2) while integrity is checked online.
//	mixed  — all of the above at once.
//
// Map-level scenarios (see mapstress.go) drive the sharded regmap store
// through compaction epochs, corrupt-shard repair and the deterministic
// fault-injection points instead of a single register:
//
//	dirchurn, corrupt-repair, compact-under-watch, watchstorm
//
// The gatetree scenario drives one register's sequencer through a
// seeded random wakeup-tree topology under relay-cascade fault
// injection (see gatetree.go):
//
//	gatetree
//
// The serving-layer scenario (servestress.go) runs a live loopback
// arcserve HTTP server under connection-level faults — slow clients,
// mid-response disconnects, accept-loop stalls:
//
//	servechaos
//
// The flight-recorder scenario (tracestorm.go) runs a traced map behind
// a live server with slow SSE clients while a walker continuously
// reconstructs spans from rings whose owners keep recording, under
// stalls armed at the ring-publish seqlock window:
//
//	tracestorm
//
// -scenario accepts a comma-separated list, run sequentially; the exit
// status is the worst of the runs. -seed makes the map and serve
// scenarios' fault schedules deterministic, and -faultcov additionally
// fails the run if any registered regmap, notify, serve or trace fault
// point was never armed.
//
// Every read is integrity-verified (torn-read detection) and checked for
// per-reader version monotonicity online.
//
//	arcstress -alg arc -scenario mixed -duration 30s
//	arcstress -scenario dirchurn,corrupt-repair -duration 5s -seed 1 -faultcov
//
// Exit status 0 if no violation was observed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/algs"
	"arcreg/internal/harness"
	"arcreg/internal/membuf"
	"arcreg/internal/register"
	"arcreg/internal/steal"
)

func main() {
	os.Exit(run())
}

type shared struct {
	reg      register.Register
	size     int
	stop     atomic.Bool
	failures atomic.Uint64
	reads    atomic.Uint64
	writes   atomic.Uint64
	stalls   atomic.Uint64
	churns   atomic.Uint64
	mu       sync.Mutex
	errs     []string
}

func (s *shared) fail(format string, args ...any) {
	s.failures.Add(1)
	s.mu.Lock()
	if len(s.errs) < 16 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

func run() int {
	var (
		alg      = flag.String("alg", "arc", "algorithm: "+strings.Join(algs.Names(), "|"))
		scenario = flag.String("scenario", "mixed", "comma-separated list of stall|churn|steal|mixed|dirchurn|corrupt-repair|compact-under-watch|watchstorm|gatetree|servechaos|tracestorm")
		threads  = flag.Int("threads", 6, "reader workers (plus 1 writer)")
		size     = flag.Int("size", 512, "value size in bytes")
		duration = flag.Duration("duration", 10*time.Second, "stress duration (per scenario)")
		stealF   = flag.Float64("steal", 0.3, "steal fraction for steal/mixed scenarios")
		seed     = flag.Uint64("seed", 1, "seed for the map scenarios' fault schedules")
		faultcov = flag.Bool("faultcov", false, "fail if any regmap, notify or serve fault point was never armed")
	)
	flag.Parse()

	worst := 0
	for _, name := range strings.Split(*scenario, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var rc int
		if isMapScenario(name) {
			rc = mapScenarios[name](*seed, *duration)
		} else {
			rc = runRegister(*alg, name, *threads, *size, *duration, *stealF)
		}
		if rc > worst {
			worst = rc
		}
	}
	if *faultcov {
		if rc := checkFaultCoverage(); rc > worst {
			worst = rc
		}
	}
	return worst
}

func runRegister(alg, scenario string, threads, size int, duration time.Duration, stealF float64) int {
	a, err := harness.ParseAlgorithm(alg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcstress:", err)
		return 2
	}
	if size < membuf.MinPayload {
		size = membuf.MinPayload
	}
	wantStall := scenario == "stall" || scenario == "mixed"
	wantChurn := scenario == "churn" || scenario == "mixed"
	wantSteal := scenario == "steal" || scenario == "mixed"
	if !wantStall && !wantChurn && !wantSteal {
		fmt.Fprintf(os.Stderr, "arcstress: unknown scenario %q\n", scenario)
		return 2
	}
	// Stalling readers park on handles, so budget extra capacity.
	capacity := threads * 2
	if capacity > a.MaxReaders() {
		capacity = a.MaxReaders()
	}
	if threads+1 > capacity {
		fmt.Fprintf(os.Stderr, "arcstress: %d readers do not fit %s's capacity %d\n",
			threads, a, capacity)
		return 2
	}

	frac := 0.0
	if wantSteal {
		frac = stealF
	}
	inj, err := steal.NewInjector(steal.Config{Fraction: frac, Seed: 7})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcstress:", err)
		return 2
	}

	seed := make([]byte, size)
	membuf.Encode(seed, 0)
	reg, err := harness.NewRegister(a, register.Config{
		MaxReaders:   capacity,
		MaxValueSize: size,
		Initial:      seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcstress:", err)
		return 2
	}

	s := &shared{reg: reg, size: size}
	var wg sync.WaitGroup

	// Writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, size)
		vcpu := inj.VCPU(0)
		var version uint64
		for !s.stop.Load() {
			version++
			membuf.Encode(buf, version)
			if err := reg.Writer().Write(buf); err != nil {
				s.fail("writer: %v", err)
				return
			}
			s.writes.Add(1)
			vcpu.Tick()
		}
	}()

	// Steady readers (with optional stalling behaviour).
	for i := 0; i < threads; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			fmt.Fprintln(os.Stderr, "arcstress:", err)
			return 2
		}
		wg.Add(1)
		go func(id int, rd register.Reader) {
			defer wg.Done()
			defer rd.Close()
			viewer, _ := rd.(register.Viewer)
			scratch := make([]byte, size)
			vcpu := inj.VCPU(1 + id)
			var last uint64
			var ops uint64
			for !s.stop.Load() {
				var (
					val []byte
					err error
				)
				if viewer != nil {
					val, err = viewer.View()
				} else {
					var n int
					n, err = rd.Read(scratch)
					val = scratch[:max(n, 0)]
				}
				if err != nil {
					s.fail("reader %d: %v", id, err)
					return
				}
				ver, verr := membuf.Verify(val)
				if verr != nil {
					s.fail("reader %d: torn read: %v", id, verr)
					return
				}
				if ver < last {
					s.fail("reader %d: version regressed %d after %d", id, ver, last)
					return
				}
				last = ver
				s.reads.Add(1)
				ops++
				// Stall scenario: periodically pin the current snapshot
				// and go silent while the writer laps the buffer ring.
				if wantStall && id%2 == 0 && ops%50_000 == 0 {
					s.stalls.Add(1)
					pinned := append([]byte(nil), val...)
					time.Sleep(20 * time.Millisecond)
					if viewer != nil {
						// The pinned view must still verify bit-for-bit:
						// the slot cannot have been recycled under us.
						if _, verr := membuf.Verify(val); verr != nil {
							s.fail("reader %d: pinned view corrupted during stall: %v", id, verr)
							return
						}
						for j := range val {
							if val[j] != pinned[j] {
								s.fail("reader %d: pinned view byte %d changed", id, j)
								return
							}
						}
					}
				}
				vcpu.Tick()
			}
		}(i, rd)
	}

	// Churn worker: open/use/close handles continuously.
	if wantChurn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]byte, size)
			for !s.stop.Load() {
				rd, err := reg.NewReader()
				if err != nil {
					// Transient exhaustion is acceptable; leaking is not —
					// leaks manifest as permanent exhaustion, caught below.
					time.Sleep(time.Millisecond)
					continue
				}
				if n, err := rd.Read(scratch); err != nil {
					s.fail("churn: read: %v", err)
				} else if _, verr := membuf.Verify(scratch[:n]); verr != nil {
					s.fail("churn: torn read: %v", verr)
				} else {
					s.reads.Add(1)
				}
				if err := rd.Close(); err != nil {
					s.fail("churn: close: %v", err)
				}
				s.churns.Add(1)
			}
		}()
	}

	// Progress reporting.
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Printf("  ... %d reads, %d writes, %d stalls, %d churns, %d failures\n",
					s.reads.Load(), s.writes.Load(), s.stalls.Load(), s.churns.Load(), s.failures.Load())
			}
		}
	}()

	time.Sleep(duration)
	s.stop.Store(true)
	wg.Wait()
	close(done)

	fmt.Printf("arcstress: %s scenario=%s threads=%d size=%d duration=%v\n",
		a, scenario, threads, size, duration)
	fmt.Printf("  totals: %d reads, %d writes, %d stalls, %d churn cycles\n",
		s.reads.Load(), s.writes.Load(), s.stalls.Load(), s.churns.Load())
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
