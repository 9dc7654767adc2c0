package arcreg_test

// Cross-module integration tests: every register implementation is driven
// through the verified workload, its complete execution history recorded
// and judged by the linearizability checker — the executable form of the
// paper's §4 proof obligations, applied uniformly to ARC, both ablated
// variants, and all three baselines, with and without CPU-steal
// injection.

import (
	"fmt"
	"sync"
	"testing"

	"arcreg/internal/harness"
	"arcreg/internal/history"
	"arcreg/internal/membuf"
	"arcreg/internal/register"
	"arcreg/internal/steal"
	"arcreg/internal/workload"
)

// checkAtomic runs writers+readers with full history recording and fails
// the test on any atomicity violation.
func checkAtomic(t *testing.T, alg harness.Algorithm, readers, writes, readsPer, size int, stealFrac float64) {
	t.Helper()
	if size < membuf.MinPayload {
		size = membuf.MinPayload
	}
	seed := make([]byte, size)
	membuf.Encode(seed, 0)
	reg, err := harness.NewRegister(alg, register.Config{
		MaxReaders:   readers,
		MaxValueSize: size,
		Initial:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := steal.NewInjector(steal.Config{Fraction: stealFrac, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	var (
		clock = history.NewClock()
		logs  = make([]*history.Log, readers+1)
		wg    sync.WaitGroup
		mu    sync.Mutex
		errs  []error
	)
	logs[0] = history.NewLog(writes)
	for i := 1; i <= readers; i++ {
		logs[i] = history.NewLog(readsPer)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		vw := workload.NewVerifiedWriter(reg.Writer(), size, clock, logs[0])
		vcpu := inj.VCPU(0)
		for i := 0; i < writes; i++ {
			if err := vw.Do(); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("writer: %w", err))
				mu.Unlock()
				return
			}
			vcpu.Tick()
		}
	}()
	for r := 0; r < readers; r++ {
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(proc int, rd register.Reader) {
			defer wg.Done()
			defer rd.Close()
			vr := workload.NewVerifiedReader(rd, reg.Caps().ZeroCopyView, proc, size, clock, logs[1+proc])
			vcpu := inj.VCPU(1 + proc)
			for i := 0; i < readsPer; i++ {
				if err := vr.Do(); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("reader %d: %w", proc, err))
					mu.Unlock()
					return
				}
				vcpu.Tick()
			}
		}(r, rd)
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	res := history.Merge(logs...).Check()
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("%s: %s", alg, v)
		}
		t.Fatalf("%s: %d atomicity violations over %d operations", alg, len(res.Violations), res.Checked)
	}
	t.Logf("%s: %d operations atomic", alg, res.Checked)
}

func TestAtomicityAllAlgorithms(t *testing.T) {
	algs := []harness.Algorithm{
		harness.AlgARC, harness.AlgARCNoFast, harness.AlgARCNoHint,
		harness.AlgRF, harness.AlgPeterson, harness.AlgLock,
		harness.AlgSeqlock, harness.AlgLeftRight,
	}
	writes, reads := 20_000, 40_000
	if testing.Short() {
		writes, reads = 4_000, 8_000
	}
	for _, alg := range algs {
		t.Run(string(alg), func(t *testing.T) {
			checkAtomic(t, alg, 3, writes, reads, 256, 0)
		})
	}
}

// The virtualized regime (Figure 2's point): steal injection perturbs
// timing wildly; atomicity must be unaffected for every algorithm.
func TestAtomicityUnderCPUSteal(t *testing.T) {
	if testing.Short() {
		t.Skip("steal stress skipped in -short")
	}
	for _, alg := range []harness.Algorithm{harness.AlgARC, harness.AlgRF, harness.AlgPeterson, harness.AlgLock} {
		t.Run(string(alg), func(t *testing.T) {
			checkAtomic(t, alg, 3, 3_000, 5_000, 256, 0.4)
		})
	}
}

// Large values stretch copy windows (more chances to observe tearing) —
// the 32KB panel of the paper's figures, as a correctness test.
func TestAtomicityLargeValues(t *testing.T) {
	if testing.Short() {
		t.Skip("large-value stress skipped in -short")
	}
	for _, alg := range []harness.Algorithm{harness.AlgARC, harness.AlgPeterson} {
		t.Run(string(alg), func(t *testing.T) {
			checkAtomic(t, alg, 2, 2_000, 3_000, 32<<10, 0)
		})
	}
}

// Many readers on one ARC register: beyond RF's 58-reader bound — the
// paper's scalability headline, exercised functionally.
func TestARCBeyondRFReaderLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("many-reader stress skipped in -short")
	}
	const readers = 128 // > 58, far beyond RF's architectural cap
	checkAtomic(t, harness.AlgARC, readers, 2_000, 500, 64, 0)
}
