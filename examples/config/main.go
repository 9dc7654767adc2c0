// Hot configuration reload: a config manager publishes JSON configuration
// through an ARC register while request-serving workers read it on every
// request — wait-free, so a reload never stalls a request and a slow
// request never stalls the reload. This is the "large-scale data sharing"
// scenario of the paper's title at application level: one writer, many
// readers, multi-word values.
//
// Every worker checks what the register promises: a config whose fields
// disagree with its generation would be a torn multi-word read, and a
// generation that goes backwards would be a new-old inversion. Either
// exits through log.Fatal.
//
//	go run ./examples/config
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

// Config is the application configuration the workers consult per request.
type Config struct {
	Generation   int           `json:"generation"`
	RateLimit    int           `json:"rate_limit"`
	Timeout      time.Duration `json:"timeout"`
	FeatureFlags []string      `json:"feature_flags"`
}

// generation builds the configuration the manager publishes at gen:
// every field is derived from the generation, so a worker can tell a
// whole config from one stitched together from two.
func generation(gen int) Config {
	return Config{
		Generation:   gen,
		RateLimit:    100 + gen,
		Timeout:      time.Second + time.Duration(gen)*time.Millisecond,
		FeatureFlags: []string{"wait-free-reads", fmt.Sprintf("gen-%d", gen)},
	}
}

// whole reports whether every field of cfg belongs to its generation.
func whole(cfg Config) bool {
	want := generation(cfg.Generation)
	return cfg.RateLimit == want.RateLimit && cfg.Timeout == want.Timeout &&
		len(cfg.FeatureFlags) == 2 && cfg.FeatureFlags[1] == want.FeatureFlags[1]
}

func main() {
	const workers, reloads = 8, 50
	reg, err := arcreg.New[Config](
		arcreg.WithReaders(workers),
		arcreg.WithInitial(generation(0)),
	)
	if err != nil {
		log.Fatal(err)
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		requests  atomic.Uint64
		staleness atomic.Uint64 // requests served with an old generation
		latestGen atomic.Int64
	)

	// Workers: decode the freshest config before serving each "request".
	for i := 0; i < workers; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer rd.Close()
			lastGen := 0
			for !stop.Load() {
				cfg, err := rd.Get()
				if err != nil {
					log.Fatalf("worker %d: %v", id, err)
				}
				if !whole(cfg) {
					log.Fatalf("worker %d: torn config: %+v", id, cfg)
				}
				if cfg.Generation < lastGen {
					log.Fatalf("worker %d: generation went backwards: %d after %d", id, cfg.Generation, lastGen)
				}
				lastGen = cfg.Generation
				// "Serve" a request under cfg.
				requests.Add(1)
				if int64(cfg.Generation) < latestGen.Load() {
					staleness.Add(1) // read overlapped a reload: old value is legal
				}
			}
		}(i)
	}

	// The config manager: reload 50 times, 10ms apart.
	for gen := 1; gen <= reloads; gen++ {
		if err := reg.Set(generation(gen)); err != nil {
			log.Fatal(err)
		}
		latestGen.Store(int64(gen))
		time.Sleep(10 * time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	fmt.Printf("served %d requests across %d config reloads\n", requests.Load(), reloads)
	fmt.Printf("%d requests overlapped a reload and used the previous generation (allowed by atomicity)\n",
		staleness.Load())
	fmt.Println("no request saw a torn or backwards config; no request blocked on a reload, no reload waited for requests")
}
