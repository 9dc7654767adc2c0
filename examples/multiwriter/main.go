// Multi-writer sharing with the (M,N) register: several sensor nodes each
// publish their latest reading; consumers always see the globally freshest
// one, totally ordered by tag — the (M,N) composition over ARC that the
// paper's introduction motivates as the reason optimized (1,N) registers
// matter.
//
// Every consumer checks what the register promises: a reading whose
// value field disagrees with its sensor and sample would be a torn
// multi-word read, and a tag that goes backwards would break the total
// order. Either exits through log.Fatal.
//
//	go run ./examples/multiwriter
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
	sensors   = 4
	consumers = 3
	readings  = 2000 // per sensor
)

// reading layout: 8B sensor id | 8B sample number | 8B value
const readingSize = 24

func main() {
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithWriters(sensors),
		arcreg.WithReaders(consumers),
		arcreg.WithMaxValueSize(readingSize),
	)
	if err != nil {
		log.Fatal(err)
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		reads     atomic.Uint64
		published atomic.Uint64
	)

	// Consumers: follow the freshest reading; tags must never regress.
	for c := 0; c < consumers; c++ {
		rd, err := reg.NewReader()
		if err != nil {
			log.Fatal(err)
		}
		// The (M,N) byte handle reports the tag of the value it last
		// returned.
		tagged := rd.Reader().(interface{ LastTag() arcreg.MNTag })
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer rd.Close()
			var last arcreg.MNTag
			var lastSensor, lastSample uint64
			for !stop.Load() {
				v, err := rd.ViewBytes()
				if err != nil {
					log.Fatalf("consumer %d: %v", id, err)
				}
				if len(v) == 0 {
					continue // genesis value
				}
				tag := tagged.LastTag()
				if tag.Less(last) {
					log.Fatalf("consumer %d: tag regressed: %v after %v", id, tag, last)
				}
				last = tag
				lastSensor = binary.LittleEndian.Uint64(v[0:8])
				lastSample = binary.LittleEndian.Uint64(v[8:16])
				if val := binary.LittleEndian.Uint64(v[16:24]); val != lastSample*(lastSensor+1) {
					log.Fatalf("consumer %d: torn reading: sensor %d sample %d value %d", id, lastSensor, lastSample, val)
				}
				reads.Add(1)
			}
			fmt.Printf("consumer %d: %v was the last tag (sensor %d, sample %d)\n",
				id, last, lastSensor, lastSample)
		}(c)
	}

	// Sensors: each an independent writer with its own cadence.
	for s := 0; s < sensors; s++ {
		w, err := reg.NewWriter()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(sensor int, w *arcreg.TypedWriter[[]byte]) {
			defer wg.Done()
			defer w.Close()
			buf := make([]byte, readingSize)
			for i := uint64(1); i <= readings; i++ {
				binary.LittleEndian.PutUint64(buf[0:8], uint64(sensor))
				binary.LittleEndian.PutUint64(buf[8:16], i)
				binary.LittleEndian.PutUint64(buf[16:24], i*uint64(sensor+1))
				if err := w.SetBytes(buf); err != nil {
					log.Fatalf("sensor %d: %v", sensor, err)
				}
				published.Add(1)
				if i%256 == 0 {
					time.Sleep(time.Millisecond) // uneven cadences
				}
			}
		}(s, w)
	}

	// Wait for the sensors (the first `sensors` waitgroup members finish
	// on their own), then stop the consumers.
	for published.Load() < sensors*readings {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	fmt.Printf("%d sensors published %d readings; consumers made %d totally-ordered reads\n",
		sensors, published.Load(), reads.Load())
}
