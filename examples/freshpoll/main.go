// Freshness-gated polling: a worker loop that consults shared state
// before every task, using TypedReader.Fresh to skip deserialization
// when nothing changed. The probe is one atomic load with no RMW
// instruction — the R1 comparison of ARC's fast path exposed as an API
// — so polling at per-task granularity costs essentially nothing.
//
// The example contrasts two worker pools processing the same task stream:
// one re-decodes the shared routing table on every task, one only when
// the freshness probe says it changed. Both see identical routing
// decisions; the gated pool does a tiny fraction of the decode work.
//
//	go run ./examples/freshpoll
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

// routingTable is the shared state: versioned shard assignments.
type routingTable struct {
	Version int            `json:"version"`
	Shards  map[string]int `json:"shards"`
}

const workers = 4

func main() {
	initial, _ := json.Marshal(routingTable{Version: 0, Shards: map[string]int{"a": 0}})
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(2*workers),
		arcreg.WithMaxValueSize(8192),
		arcreg.WithInitialBytes(initial),
	)
	if err != nil {
		log.Fatal(err)
	}

	var (
		wg           sync.WaitGroup
		stop         atomic.Bool
		naiveDecodes atomic.Uint64
		gatedDecodes atomic.Uint64
		naiveTasks   atomic.Uint64
		gatedTasks   atomic.Uint64
	)

	// Naive pool: decode the table on every task.
	for i := 0; i < workers; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			for !stop.Load() {
				v, _ := rd.ViewBytes()
				var table routingTable
				if err := json.Unmarshal(v, &table); err != nil {
					log.Fatal(err)
				}
				naiveDecodes.Add(1)
				naiveTasks.Add(1)
				_ = table.Shards["a"] // route the "task"
			}
		}()
	}

	// Gated pool: decode only when the register changed.
	for i := 0; i < workers; i++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			var table routingTable
			for !stop.Load() {
				if !rd.Fresh() {
					v, _ := rd.ViewBytes()
					if err := json.Unmarshal(v, &table); err != nil {
						log.Fatal(err)
					}
					gatedDecodes.Add(1)
				}
				gatedTasks.Add(1)
				_ = table.Shards["a"]
			}
		}()
	}

	// The control plane: reshard every 5ms, 100 times.
	shards := map[string]int{"a": 0, "b": 1, "c": 2}
	for v := 1; v <= 100; v++ {
		shards["a"] = v % 7
		blob, _ := json.Marshal(routingTable{Version: v, Shards: shards})
		if err := reg.Set(blob); err != nil {
			log.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	fmt.Printf("naive pool: %d tasks, %d decodes (1 per task)\n",
		naiveTasks.Load(), naiveDecodes.Load())
	fmt.Printf("gated pool: %d tasks, %d decodes (%.4f%% of tasks)\n",
		gatedTasks.Load(), gatedDecodes.Load(),
		100*float64(gatedDecodes.Load())/float64(max(gatedTasks.Load(), 1)))
	fmt.Println("the freshness probe is one atomic load — no RMW, no copy, no decode")
}
