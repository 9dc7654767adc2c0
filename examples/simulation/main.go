// Parallel-simulation state sharing: the scenario from the paper's
// research context (the authors work on optimistic parallel discrete
// event simulation; the Hold model the evaluation cites comes from
// simulation event-list studies). A coordinator periodically publishes
// global simulation control state — the GVT (global virtual time) plus
// per-LP commit horizons — through an ARC register; many logical
// processes (LPs) consult it before every event to decide whether their
// speculative work can be committed. Reads are wait-free, so a slow LP
// never delays GVT publication and GVT publication never delays event
// processing — the property that motivates wait-free registers for
// "massively parallel applications" in the paper's conclusions.
//
//	go run ./examples/simulation
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

const (
	lps       = 8 // logical processes
	eventsPer = 300_000
	gvtPeriod = 2 * time.Millisecond
)

// control is the shared snapshot: GVT plus a commit horizon per LP.
// Layout: 8B round | 8B gvt | lps×8B horizons.
const controlSize = 16 + lps*8

func main() {
	// Round 0 (GVT 0) seeds the register, so an LP that starts before the
	// coordinator's first publication still decodes a full snapshot.
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(lps),
		arcreg.WithMaxValueSize(controlSize),
		arcreg.WithInitialBytes(make([]byte, controlSize)),
	)
	if err != nil {
		log.Fatal(err)
	}

	var (
		wg        sync.WaitGroup
		clocks    [lps]atomic.Uint64 // each LP's local virtual time
		committed [lps]atomic.Uint64 // events committed per LP
		stale     atomic.Uint64      // control reads skipped via freshness probe
		done      atomic.Int32
	)

	// LPs: process events; before each, consult the freshest control
	// state (freshness-gated: decode only when GVT advanced).
	for lp := 0; lp < lps; lp++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer rd.Close()
			defer done.Add(1)
			var gvt uint64
			var lastRound uint64
			for ev := 0; ev < eventsPer; ev++ {
				// Wait-free control-state consultation.
				if !rd.Fresh() {
					v, err := rd.ViewBytes()
					if err != nil {
						log.Fatalf("LP %d: view failed: %v", id, err)
					}
					round := binary.LittleEndian.Uint64(v[0:8])
					newGVT := binary.LittleEndian.Uint64(v[8:16])
					if round < lastRound {
						log.Fatalf("LP %d: control went backwards (round %d after %d)", id, round, lastRound)
					}
					if newGVT < gvt {
						log.Fatalf("LP %d: GVT regressed %d -> %d", id, gvt, newGVT)
					}
					lastRound, gvt = round, newGVT
				} else {
					stale.Add(1)
				}
				// "Process" the event: advance local clock; commit if the
				// event time is at or below... (events below GVT+lookahead
				// are safe to commit in a conservative engine).
				t := clocks[id].Add(1 + uint64(id)%3)
				if t <= gvt+1000 {
					committed[id].Add(1)
				}
			}
		}(lp)
	}

	// Coordinator: the single writer. Computes GVT = min of LP clocks and
	// publishes it until every LP finishes.
	buf := make([]byte, controlSize)
	var round uint64
	for done.Load() < lps {
		round++
		gvt := uint64(1 << 62)
		for i := range clocks {
			if c := clocks[i].Load(); c < gvt {
				gvt = c
			}
		}
		binary.LittleEndian.PutUint64(buf[0:8], round)
		binary.LittleEndian.PutUint64(buf[8:16], gvt)
		for i := range clocks {
			binary.LittleEndian.PutUint64(buf[16+i*8:], clocks[i].Load())
		}
		if err := reg.Set(buf); err != nil {
			log.Fatal(err)
		}
		time.Sleep(gvtPeriod)
	}
	wg.Wait()

	var total uint64
	for i := range committed {
		total += committed[i].Load()
	}
	fmt.Printf("%d LPs processed %d events; %d committed against %d GVT rounds\n",
		lps, lps*eventsPer, total, round)
	fmt.Printf("%d control consultations were satisfied by the freshness probe alone (no read)\n",
		stale.Load())
	fmt.Println("no LP ever blocked on GVT publication; no GVT round waited for an LP")
}
