package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// spanKind names the layer call a span times. Traced runs wrap the
// benchmark's calls into each layer's public functions in spans; the
// program under test is not instrumented beyond its own flight recorder.
type spanKind uint8

const (
	spanArcView     spanKind = iota + 1 // arc Viewer.View (feed reads)
	spanArcWrite                        // arc Writer.Write (feed writes)
	spanRegmapGet                       // MapReader.Get (catalog reads)
	spanCodecDecode                     // Codec.Decode (catalog reads)
	spanCodecEncode                     // Codec.Encode (catalog writes)
	spanRegmapSet                       // Map.Set (catalog writes)
	spanAddKey                          // first Set of a preloaded key
	spanEdgeGet                         // client GET round trip
	spanEdgePut                         // client PUT round trip
	spanServeGet                        // HTTPHandler.ServeHTTP for a GET
	spanServePut                        // HTTPHandler.ServeHTTP for a PUT
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanArcView:     "arc.view",
	spanArcWrite:    "arc.write",
	spanRegmapGet:   "regmap.get",
	spanCodecDecode: "codec.decode",
	spanCodecEncode: "codec.encode",
	spanRegmapSet:   "regmap.set",
	spanAddKey:      "regmap.addkey",
	spanEdgeGet:     "client.get",
	spanEdgePut:     "client.put",
	spanServeGet:    "serve.get",
	spanServePut:    "serve.put",
}

// span is one timed call. parent is the id of the span that caused it:
// the client round trip is the parent of the handler span of the same
// request.
type span struct {
	id, parent uint64
	kind       spanKind
	start, end int64
}

// spanLog is one goroutine's in-memory span buffer, written out when the
// run ends. Ids carry the log's tag in the top byte so ids from
// different logs never collide. A nil log records nothing, which is how
// untraced runs skip span bookkeeping.
type spanLog struct {
	tag, next uint64
	spans     []span
}

func newSpanLog(tag uint8, capacity int) *spanLog {
	return &spanLog{tag: uint64(tag) << 56, spans: make([]span, 0, capacity)}
}

func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.next++
	return l.tag | l.next
}

// add records a span; once the buffer is full further spans are dropped.
func (l *spanLog) add(id, parent uint64, k spanKind, start, end int64) {
	if l == nil || len(l.spans) == cap(l.spans) {
		return
	}
	l.spans = append(l.spans, span{id: id, parent: parent, kind: k, start: start, end: end})
}

// spanStats sums span durations per kind. A span's self time is its
// duration minus the durations of the spans it caused.
type spanStats struct {
	n         [numSpanKinds]int
	dur, self [numSpanKinds]float64
}

func summarize(logs ...*spanLog) spanStats {
	children := map[uint64]int64{}
	for _, l := range logs {
		for _, s := range l.spans {
			if s.parent != 0 {
				children[s.parent] += s.end - s.start
			}
		}
	}
	var st spanStats
	for _, l := range logs {
		for _, s := range l.spans {
			d := float64(s.end - s.start)
			st.n[s.kind]++
			st.dur[s.kind] += d
			st.self[s.kind] += d - float64(children[s.id])
		}
	}
	return st
}

// meanNs is the mean duration of kind's spans, 0 when none were recorded.
func (st spanStats) meanNs(k spanKind) float64 {
	if st.n[k] == 0 {
		return 0
	}
	return st.dur[k] / float64(st.n[k])
}

func (st spanStats) meanSelfNs(k spanKind) float64 {
	if st.n[k] == 0 {
		return 0
	}
	return st.self[k] / float64(st.n[k])
}

// firstLastMeans returns the mean duration of the first and the last n
// spans of kind k in log order, 0 when the log holds fewer.
func firstLastMeans(l *spanLog, k spanKind, n int) (first, last float64) {
	var ds []float64
	for _, s := range l.spans {
		if s.kind == k {
			ds = append(ds, float64(s.end-s.start))
		}
	}
	if len(ds) < n {
		return 0, 0
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	return mean(ds[:n]), mean(ds[len(ds)-n:])
}

// writeSpans dumps every recorded span as tab-separated text: id, parent
// id, layer call, start and end in nanoseconds since process start.
func writeSpans(path string, logs ...*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tcall\tstart_ns\tend_ns")
	for _, l := range logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%x\t%x\t%s\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtCounters are the Go runtime's cumulative allocation and CPU
// counters; two readings bracket a measurement window.
type rtCounters struct {
	allocs, bytes  uint64
	gcCPU, usedCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{
		allocs:  s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
		gcCPU:   s[2].Value.Float64(),
		usedCPU: s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// runtimeLayer turns two runtime readings around a window of ops
// operations into the runtime layer's per-layer metrics.
func runtimeLayer(out map[string]float64, before, after rtCounters, ops uint64) {
	if ops == 0 {
		ops = 1
	}
	out["runtime.allocs_per_op"] = float64(after.allocs-before.allocs) / float64(ops)
	out["runtime.alloc_bytes_per_op"] = float64(after.bytes-before.bytes) / float64(ops)
	if used := after.usedCPU - before.usedCPU; used > 0 {
		out["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / used
	}
}

// settle collects garbage and returns the freed memory to the OS, so a
// set-up timed after it faults in fresh pages, as one in a new process
// would, however much an earlier set-up in the run left behind.
func settle() { debug.FreeOSMemory() }

// liveHeapBytes settles the heap and returns its live size. Callers keep
// the workload's structures reachable across the call and drop the
// benchmark's own buffers before it.
func liveHeapBytes() int64 {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
