package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"arcreg"
)

const (
	feedReaders = 4096
	feedRate    = 20000 // publications per second, open loop
	// feedReadSample: one read in feedReadSample is timed. Timing every
	// ~30 ns view would double its cost.
	feedReadSample = 1024
	// feedWriteSpanSample: a traced run keeps one write span in
	// feedWriteSpanSample, which bounds the span dump's size.
	feedWriteSpanSample = 16
	feedSetups          = 9
)

// feedRig is one built feed register: its writer and every reader
// handle, each already read once.
type feedRig struct {
	w       *arcreg.TypedWriter[[]byte]
	readers []*arcreg.TypedReader[[]byte]
}

// buildFeed is the feed's set-up: the register, a first publication,
// and all reader handles, each read once so no lazy set-up is left for
// the measurement window.
func buildFeed(first []byte) (*feedRig, error) {
	reg, err := arcreg.New[[]byte](
		arcreg.WithCodec(arcreg.Raw()),
		arcreg.WithReaders(feedReaders),
		arcreg.WithMaxValueSize(feedValueSize),
	)
	if err != nil {
		return nil, err
	}
	w, err := reg.NewWriter()
	if err != nil {
		return nil, err
	}
	if err := w.SetBytes(first); err != nil {
		return nil, err
	}
	rig := &feedRig{w: w, readers: make([]*arcreg.TypedReader[[]byte], feedReaders)}
	for i := range rig.readers {
		rd, err := reg.NewReader()
		if err != nil {
			return nil, err
		}
		if _, err := rd.ViewBytes(); err != nil {
			return nil, err
		}
		rig.readers[i] = rd
	}
	return rig, nil
}

func runFeed(p params, traced bool) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(p.seed))
	order := rng.Perm(feedReaders) // the readers' handle visiting order
	value := make([]byte, feedValueSize)
	rng.Read(value)
	stampFeed(value, 1, 0)

	setups := feedSetups
	if p.short {
		setups = 2
	}
	var rig *feedRig
	setupS, _, err := setUp(setups, func() { rig = nil }, func() (err error) {
		rig, err = buildFeed(value)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.e2e["setup_s"] = setupS

	var (
		rlog, wlog *spanLog
		viewers    []arcreg.Viewer
	)
	arcw := rig.w.Writer()
	if traced {
		rlog = newSpanLog(1, capFor(40e6/feedReadSample, p.window))
		wlog = newSpanLog(2, capFor(feedRate/feedWriteSpanSample, p.window))
		viewers = make([]arcreg.Viewer, feedReaders)
		for i, rd := range rig.readers {
			viewers[i] = rd.Reader().(arcreg.Viewer)
		}
	}
	var rs0 arcreg.ReadStats
	for _, rd := range rig.readers {
		rs0.Add(rd.ReadStats())
	}
	ws0 := rig.w.WriteStats()
	rt0 := readRuntime()

	start := now() + int64(time.Millisecond)
	end := start + int64(p.window)
	writeLat := newSamples(capFor(feedRate, p.window))
	late := newSamples(capFor(feedRate, p.window))
	var writes, writeFails uint64
	lastDone := start
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := int64(time.Second) / feedRate
		for k := int64(0); ; k++ {
			due := start + k*period
			if due >= end {
				return
			}
			// Spin, not sleep: sleep-paced wakeups bunch publications
			// into bursts, which changes the readers' fast-path share.
			t := now()
			for t < due {
				t = now()
			}
			late.add(t - due)
			stampFeed(value, uint64(k)+2, due)
			var err error
			if traced {
				t0 := now()
				err = arcw.Write(value)
				if k%feedWriteSpanSample == 0 {
					wlog.add(wlog.newID(), 0, spanArcWrite, t0, now())
				}
			} else {
				err = rig.w.SetBytes(value)
			}
			done := now()
			writes++
			if err != nil {
				writeFails++
				continue
			}
			writeLat.add(done - due)
			lastDone = done
		}
	}()

	readLat := newSamples(capFor(40e6/feedReadSample, p.window))
	observe := newSamples(capFor(feedRate, p.window))
	readCuts := newSlicer(start, p.window, throughputCuts)
	var reads, readFails uint64
	newest := uint64(1)
	for now() < start {
	}
	for t := start; t < end; t = now() {
		for _, i := range order {
			var (
				v   []byte
				err error
			)
			if reads%feedReadSample == 0 {
				t0 := now()
				if traced {
					v, err = viewers[i].View()
				} else {
					v, err = rig.readers[i].ViewBytes()
				}
				t1 := now()
				readLat.add(t1 - t0)
				rlog.add(rlog.newID(), 0, spanArcView, t0, t1)
			} else {
				v, err = rig.readers[i].ViewBytes()
			}
			reads++
			if err != nil {
				readFails++
				continue
			}
			ver, due, err := checkFeed(v, newest)
			if err != nil {
				o.audit.fail(err)
				continue
			}
			if ver > newest {
				newest = ver
				observe.add(now() - due)
			}
		}
		readCuts.add(now(), uint64(len(order)))
	}
	wg.Wait()

	rt1 := readRuntime()
	var rs arcreg.ReadStats
	for _, rd := range rig.readers {
		rs.Add(rd.ReadStats())
	}
	ws := rig.w.WriteStats()
	o.attempted, o.failed = reads+writes, readFails+writeFails

	rd, wd, od := readLat.dist(), writeLat.dist(), observe.dist()
	o.e2e["reads_per_s"] = readCuts.rate()
	// The schedule asks for feedRate; fewer complete only when the writer
	// cannot keep up.
	o.e2e["writes_per_s"] = float64(writes-writeFails) / seconds(lastDone-start)
	o.e2e["read_p50_us"] = rd.quantile(0.5) / 1e3
	o.e2e["write_p50_us"] = wd.quantile(0.5) / 1e3
	o.e2e["observe_p50_us"] = od.quantile(0.5) / 1e3
	o.latency("read", rd)
	o.latency("write", wd)
	o.latency("observe", od)
	_, lateTail := late.dist().tail()
	o.layer["gen.late_p99_us"] = lateTail / 1e3

	ops := rs.Ops - rs0.Ops
	o.layer["arc.rmw_per_read"] = share(rs.RMW-rs0.RMW, ops)
	o.layer["arc.fastpath_share"] = share(rs.FastPath-rs0.FastPath, ops)
	wops := ws.Ops - ws0.Ops
	o.layer["arc.scan_per_write"] = share(ws.ScanSteps-ws0.ScanSteps, wops)
	o.layer["arc.hint_share"] = share(ws.HintHits-ws0.HintHits, wops)
	runtimeLayer(o.layer, rt0, rt1, o.attempted)
	if traced {
		st := summarize(rlog, wlog)
		o.layer["arc.read_ns"] = st.meanNs(spanArcView)
		o.layer["arc.write_ns"] = st.meanNs(spanArcWrite)
		path := filepath.Join(p.spansDir, fmt.Sprintf("feed-seed%d.tsv", p.seed))
		if err := writeSpans(path, rlog, wlog); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	// The register must still be reachable when the heap is read; the
	// sample and span buffers must not be.
	readLat, writeLat, late, observe, rlog, wlog = nil, nil, nil, nil, nil, nil
	o.e2e["heap_mb"] = float64(liveHeapBytes()) / (1 << 20)
	runtime.KeepAlive(rig)
	return o, nil
}
