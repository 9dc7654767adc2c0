// Price feed over the watch subsystem: one writer publishes quotes at
// full speed while subscribers follow them through the context-aware
// Watch API — parked between changes, woken by the publication
// sequencer, never polling.
//
// The point demonstrated is the slow-consumer semantics: delivery is
// at-least-once with latest-value conflation. A subscriber that
// processes slowly simply observes fewer, newer quotes — it can never
// build a backlog, and it never blocks the writer, because the
// register has no queue: the writer publishes into a wait-free
// register and moves on (zero RMW, zero allocations on its publish
// path while nobody is parked), and each wakeup re-reads whatever is
// freshest. Compare a channel-based feed, where a slow consumer forces
// the producer to block, drop explicitly, or buffer without bound.
//
//	go run ./examples/pricefeed
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

// Quote is one instrument's current market.
type Quote struct {
	Symbol string  `json:"symbol"`
	Bid    float64 `json:"bid"`
	Ask    float64 `json:"ask"`
	Seq    int     `json:"seq"` // per-symbol publication number
}

const symbol = "EURUSD"

func main() {
	feed, err := arcreg.NewMap[Quote](arcreg.WithReaders(8), arcreg.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	// subscriber follows one symbol; perTick simulates processing cost.
	type subStats struct {
		name     string
		received atomic.Int64
		lastSeq  atomic.Int64
	}
	var wg sync.WaitGroup
	subscribe := func(name string, perTick time.Duration) *subStats {
		st := &subStats{name: name}
		rd, err := feed.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			for q, err := range rd.Watch(ctx, symbol) {
				if err != nil {
					if errors.Is(err, arcreg.ErrKeyNotFound) {
						continue // not published yet (or deleted): keep waiting
					}
					return // ctx deadline: done
				}
				st.received.Add(1)
				st.lastSeq.Store(int64(q.Seq))
				if perTick > 0 {
					time.Sleep(perTick) // slow consumer: conflation kicks in
				}
			}
		}()
		return st
	}

	fast := subscribe("fast", 0)
	slow := subscribe("slow (2ms/quote)", 2*time.Millisecond)

	// Writer: publish as fast as the register accepts. It never waits
	// for any subscriber.
	published := 0
	start := time.Now()
	for ctx.Err() == nil {
		published++
		q := Quote{Symbol: symbol, Seq: published,
			Bid: 1.08 + float64(published%100)/1e4,
			Ask: 1.0805 + float64(published%100)/1e4}
		if err := feed.Set(symbol, q); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	wg.Wait()

	fmt.Printf("writer: %d quotes in %v (%.0f quotes/ms) — never blocked by subscribers\n",
		published, elapsed.Round(time.Millisecond), float64(published)/float64(elapsed.Milliseconds()))
	for _, st := range []*subStats{fast, slow} {
		fmt.Printf("%-18s received %6d quotes (conflated %6d away), last seq %d/%d\n",
			st.name, st.received.Load(), int64(published)-st.received.Load(),
			st.lastSeq.Load(), published)
	}
	fmt.Println("both subscribers track the freshest quote; the slow one just saw fewer intermediates")
}
