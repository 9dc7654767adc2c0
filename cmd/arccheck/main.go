// Command arccheck stress-tests a register implementation for atomicity —
// the executable counterpart of the paper's §4 correctness proof.
//
// It runs one writer and N−1 readers performing timed, version-stamped,
// integrity-checked operations, records the complete execution history,
// and then decides atomicity: regularity (no stale or future reads), no
// new-old inversion across any pair of reads (the paper's Criterion 1),
// per-process order, and torn-read freedom.
//
//	arccheck -alg arc -threads 8 -size 1024 -reads 200000 -writes 50000
//	arccheck -alg lock -steal 0.4        # locks stay atomic, just slow
//
// Exit status 0 means the recorded history is atomic; 1 means a violation
// was found (printed); 2 means the run itself failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"arcreg/internal/algs"
	"arcreg/internal/harness"
	"arcreg/internal/history"
	"arcreg/internal/membuf"
	"arcreg/internal/register"
	"arcreg/internal/steal"
	"arcreg/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		alg     = flag.String("alg", "arc", "algorithm: "+strings.Join(algs.Names(), "|"))
		threads = flag.Int("threads", 4, "total workers: 1 writer + threads-1 readers")
		size    = flag.Int("size", 1024, "value size in bytes")
		writes  = flag.Int("writes", 50_000, "writes performed by the writer")
		reads   = flag.Int("reads", 200_000, "reads performed by each reader")
		stealF  = flag.Float64("steal", 0, "CPU-steal fraction (0 disables)")
		seed    = flag.Uint64("seed", 1, "steal schedule seed")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	a, err := harness.ParseAlgorithm(*alg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arccheck:", err)
		return 2
	}
	if *threads < 2 {
		fmt.Fprintln(os.Stderr, "arccheck: need at least 2 threads")
		return 2
	}
	readers := *threads - 1
	if readers > a.MaxReaders() {
		fmt.Fprintf(os.Stderr, "arccheck: %d readers exceed %s's limit of %d\n", readers, a, a.MaxReaders())
		return 2
	}
	if *size < membuf.MinPayload {
		*size = membuf.MinPayload
	}

	inj, err := steal.NewInjector(steal.Config{Fraction: *stealF, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arccheck:", err)
		return 2
	}

	// Seed the register so the very first reads verify as version 0.
	seedVal := make([]byte, *size)
	membuf.Encode(seedVal, 0)
	reg, err := harness.NewRegister(a, register.Config{
		MaxReaders:   readers,
		MaxValueSize: *size,
		Initial:      seedVal,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arccheck:", err)
		return 2
	}

	var (
		clock = history.NewClock()
		logs  = make([]*history.Log, *threads)
		wg    sync.WaitGroup
		mu    sync.Mutex
		fails []error
	)
	for i := range logs {
		n := *reads
		if i == 0 {
			n = *writes
		}
		logs[i] = history.NewLog(n)
	}

	start := time.Now()

	// Writer (worker 0): performs exactly *writes operations, then stops.
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		vw := workload.NewVerifiedWriter(reg.Writer(), *size, clock, logs[0])
		vcpu := inj.VCPU(0)
		for i := 0; i < *writes; i++ {
			if err := vw.Do(); err != nil {
				mu.Lock()
				fails = append(fails, fmt.Errorf("writer: %w", err))
				mu.Unlock()
				return
			}
			vcpu.Tick()
		}
	}()

	// Readers: each performs *reads operations (they overlap the writes
	// and keep reading after the writer finishes — both regimes matter).
	for r := 0; r < readers; r++ {
		rd, err := reg.NewReader()
		if err != nil {
			fmt.Fprintln(os.Stderr, "arccheck:", err)
			return 2
		}
		wg.Add(1)
		go func(proc int, rd register.Reader) {
			defer wg.Done()
			defer rd.Close()
			vr := workload.NewVerifiedReader(rd, proc, *size, clock, logs[1+proc])
			vcpu := inj.VCPU(1 + proc)
			for i := 0; i < *reads; i++ {
				if err := vr.Do(); err != nil {
					mu.Lock()
					fails = append(fails, fmt.Errorf("reader %d: %w", proc, err))
					mu.Unlock()
					return
				}
				vcpu.Tick()
			}
		}(r, rd)
	}

	wg.Wait()
	elapsed := time.Since(start)

	if len(fails) > 0 {
		for _, err := range fails {
			fmt.Fprintln(os.Stderr, "arccheck: run error:", err)
		}
		return 2
	}

	h := history.Merge(logs...)
	res := h.Check()
	if !*quiet {
		fmt.Printf("arccheck: %s threads=%d size=%d steal=%.0f%%\n", a, *threads, *size, *stealF*100)
		fmt.Printf("  recorded %d writes, %d reads in %v\n", h.Writes(), h.Reads(), elapsed.Round(time.Millisecond))
	}
	if res.Ok() {
		fmt.Printf("  ATOMIC: %d operations satisfy Criterion 1 (regular + no new-old inversion)\n", res.Checked)
		return 0
	}
	fmt.Printf("  VIOLATIONS (%d shown):\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Println("   ", v)
	}
	return 1
}
