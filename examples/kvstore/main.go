// A small keyed store over the wait-free snapshot map: one writer
// goroutine runs the full key lifecycle — create, update, delete,
// re-create — while readers Get hot keys (two atomic loads when nothing
// changed), watch a single key for changes, and take atomic multi-key
// Snapshots that are guaranteed to be a point-in-time view of the whole
// store, never a torn mixture of before- and after-states. It exits
// through log.Fatal if the watcher sees no value or an epoch go
// backwards, or if a snapshot is torn.
//
//	go run ./examples/kvstore
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

// Session is the per-user record the store holds.
type Session struct {
	User  string `json:"user"`
	Node  string `json:"node"`
	Epoch int    `json:"epoch"`
}

func main() {
	store, err := arcreg.NewMap[Session](
		arcreg.WithShards(8),
		arcreg.WithReaders(4),
		arcreg.WithMaxValueSize(512),
	)
	if err != nil {
		log.Fatal(err)
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)

	// Seed the pair (shadow first, see the auditor) so the watcher's
	// first step finds a value.
	if err := store.Set("session/alice-shadow", Session{User: "alice", Node: "n2"}); err != nil {
		log.Fatal(err)
	}
	if err := store.Set("session/alice", Session{User: "alice", Node: "n1"}); err != nil {
		log.Fatal(err)
	}

	// Reader 1: watches one key — parked between changes, woken by the
	// key's publications and lifecycle only. It stops at the first
	// deletion it observes; the writer's final deletion guarantees one.
	watcher, err := store.NewReader()
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	watching := make(chan struct{}) // closed once the seed is observed
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer watcher.Close()
		changes, last := 0, -1
		for s, err := range watcher.Watch(ctx, "session/alice") {
			if errors.Is(err, arcreg.ErrKeyNotFound) {
				break
			}
			if err != nil {
				log.Fatal(err)
			}
			if s.Epoch < last {
				log.Fatalf("watcher: epoch went backwards %d → %d", last, s.Epoch)
			}
			if changes == 0 {
				close(watching)
			}
			changes++
			last = s.Epoch
		}
		if changes == 0 {
			log.Fatal("watcher: observed no value before the deletion")
		}
		fmt.Printf("watcher: session/alice deleted after %d observed changes (last epoch %d)\n", changes, last)
	}()
	<-watching

	// Reader 2: takes periodic snapshots. The invariants checked below
	// only hold because Snapshot is atomic across keys and shards: the
	// writer updates "session/alice-shadow" strictly before
	// "session/alice" and deletes alice strictly first, so at every
	// instant alice's presence implies her shadow's, with the shadow at
	// most one epoch ahead. A torn multi-key read could observe any
	// mixture; a point-in-time view cannot.
	auditor, err := store.NewReader()
	if err != nil {
		log.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer auditor.Close()
		audits := 0
		for !stop.Load() {
			snap, err := auditor.Snapshot()
			if err != nil {
				log.Fatal(err)
			}
			a, aok := snap["session/alice"]
			b, bok := snap["session/alice-shadow"]
			if aok && !bok {
				log.Fatal("torn snapshot: alice present without her shadow")
			}
			if aok && b.Epoch != a.Epoch && b.Epoch != a.Epoch+1 {
				log.Fatalf("torn snapshot: epochs %d vs %d", a.Epoch, b.Epoch)
			}
			audits++
		}
		fmt.Printf("auditor: %d atomic snapshots, none torn\n", audits)
	}()

	// The writer: full lifecycle, single goroutine (the map is
	// single-writer per shard; one goroutine satisfies that trivially).
	for epoch := 1; epoch <= 200; epoch++ {
		if epoch%3 == 0 {
			// Delete and re-create the pair — shadow first out, last in,
			// so "alice present ⟹ shadow present" holds at every instant.
			if err := store.Delete("session/alice"); err != nil {
				log.Fatal(err)
			}
			if err := store.Delete("session/alice-shadow"); err != nil {
				log.Fatal(err)
			}
		}
		if err := store.Set("session/alice-shadow", Session{User: "alice", Node: "n2", Epoch: epoch}); err != nil {
			log.Fatal(err)
		}
		if err := store.Set("session/alice", Session{User: "alice", Node: "n1", Epoch: epoch}); err != nil {
			log.Fatal(err)
		}
		if err := store.Set(fmt.Sprintf("session/user-%03d", epoch), Session{User: "guest", Node: "n3", Epoch: epoch}); err != nil {
			log.Fatal(err)
		}
		if epoch%50 == 0 {
			time.Sleep(2 * time.Millisecond) // let the watcher observe some epochs
		}
	}
	// Final deletion ends the watcher's iteration.
	if err := store.Delete("session/alice"); err != nil {
		log.Fatal(err)
	}
	if err := store.Delete("session/alice-shadow"); err != nil {
		log.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()

	fmt.Printf("store holds %d sessions after the churn\n", store.Len())
	fmt.Println("every read and write was wait-free; no reader ever blocked the writer")
}
