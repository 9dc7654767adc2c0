// Package obs is the runtime observability layer: the live counterpart
// to internal/metrics' collect-at-quiescence discipline. Where metrics
// aggregates plain per-goroutine structs after a measurement window has
// closed, obs lets a snapshot walker read counters while the system
// runs — without putting a read-modify-write, a lock, or an allocation
// on any recording path.
//
// # Recording discipline
//
// Every obs cell is single-writer: the goroutine that owns the counted
// event advances a plain local mirror and then publishes it with one
// atomic store — the same publish idiom the notify sequencer uses for
// its epoch word. No recording path executes an RMW instruction, takes
// a lock, or allocates. Snapshot walkers read the published words with
// atomic loads from any goroutine, so live collection is race-free by
// construction (and -race agrees).
//
// This buys liveness at a price the repository's doctrine bounds
// precisely: one atomic store per recorded event. That price is
// affordable exactly on paths that already pay for synchronization —
// publication, park/wake, key lifecycle, compaction — and unaffordable
// on the register's hot read path, whose whole point is two loads and
// nothing else. Hot-path op counters therefore stay plain per-handle
// fields (register.ReadStats/WriteStats), enter the tree only through
// quiescent collection, and obs never touches them. DESIGN.md §10 is
// the full catalogue of which counter lives in which tier and why.
//
// # The Stats tree
//
// Snapshot is a named node of counters, histograms and children —
// the one shape that unifies the register, (M,N), shard and map stats
// the packages used to expose through three divergent structs. Sources
// produce Snapshots on demand; Var adapts any Source to expvar.Var, so a
// process exports its whole tree through the stdlib /debug/vars
// endpoint with no dependencies.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"arcreg/internal/metrics"
)

// Cell is one single-writer live counter: the owner advances a plain
// local mirror and publishes it with one atomic store; any goroutine
// reads the published word with one atomic load. The zero value is
// ready to use. Cells are deliberately unpadded (16 bytes): group the
// cells one goroutine owns into a block and pad the block — false
// sharing only exists between distinct writers, and a cell has exactly
// one.
type Cell struct {
	local uint64
	v     atomic.Uint64
}

// Add advances the counter by n: one plain add, one atomic store, no
// RMW. Owner only.
func (c *Cell) Add(n uint64) {
	c.local += n
	c.v.Store(c.local)
}

// Store publishes an absolute value (gauge semantics: epochs, sizes).
// Owner only.
func (c *Cell) Store(v uint64) {
	c.local = v
	c.v.Store(v)
}

// Local returns the owner's mirror without an atomic load. Owner only.
func (c *Cell) Local() uint64 { return c.local }

// Load returns the published value: one atomic load, any goroutine.
func (c *Cell) Load() uint64 { return c.v.Load() }

// Hist is the live counterpart of metrics.Histogram: the owner records
// into a plain local mirror and publishes the touched words (one bucket,
// count, sum, min, max) with atomic stores — five stores per sample, no
// RMW, no allocation. Snapshot rebuilds a metrics.Histogram from the
// published words on any goroutine. A snapshot racing a Record may tear
// across words (e.g. see the new bucket but the old sum); every word is
// individually atomic and monotone-enough that the tear is bounded by
// one sample, which is the documented price of liveness.
type Hist struct {
	local   metrics.Histogram
	buckets [metrics.NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64
	max     atomic.Uint64
}

// Record adds one sample in nanoseconds. Owner only.
func (h *Hist) Record(ns uint64) {
	h.local.Record(ns)
	i := metrics.BucketIndex(ns)
	h.buckets[i].Store(h.local.Bucket(i))
	h.count.Store(h.local.Count())
	h.sum.Store(h.local.Sum())
	h.min.Store(h.local.Min())
	h.max.Store(h.local.Max())
}

// RecordSince is Record(now-start) on a monotonic nanosecond clock.
func (h *Hist) RecordSince(startNs, nowNs int64) {
	if nowNs > startNs {
		h.Record(uint64(nowNs - startNs))
	} else {
		h.Record(0)
	}
}

// Count returns the published sample count: any goroutine.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Snapshot rebuilds a metrics.Histogram from the published words: any
// goroutine, atomic loads only.
func (h *Hist) Snapshot() metrics.Histogram {
	var b [metrics.NumBuckets]uint64
	for i := range b {
		b[i] = h.buckets[i].Load()
	}
	return metrics.Restore(b, h.count.Load(), h.sum.Load(), h.min.Load(), h.max.Load())
}

// Stat is one named counter value in a Snapshot.
type Stat struct {
	Name  string
	Value uint64
}

// HistStat is one named latency distribution in a Snapshot.
type HistStat struct {
	Name string
	Hist metrics.Histogram
}

// Info is one named string annotation in a Snapshot — build revision,
// Go version, listen address: facts about the process that are not
// counters. Renderers emit them alongside the numbers (the Prometheus
// exposition folds a node's infos into a single `_info` gauge's labels,
// the textfile idiom).
type Info struct {
	Name  string
	Value string
}

// Snapshot is one node of the Stats tree: a point-in-time, caller-owned
// copy. Stats, Hists, Infos and Children preserve insertion order so
// text and JSON renderings are deterministic.
type Snapshot struct {
	Name     string
	Stats    []Stat
	Hists    []HistStat
	Infos    []Info
	Children []Snapshot
}

// Put appends (or updates) a counter value on the node and returns the
// node for chaining.
func (s *Snapshot) Put(name string, v uint64) *Snapshot {
	for i := range s.Stats {
		if s.Stats[i].Name == name {
			s.Stats[i].Value = v
			return s
		}
	}
	s.Stats = append(s.Stats, Stat{Name: name, Value: v})
	return s
}

// PutHist appends (or updates) a histogram on the node.
func (s *Snapshot) PutHist(name string, h metrics.Histogram) *Snapshot {
	for i := range s.Hists {
		if s.Hists[i].Name == name {
			s.Hists[i].Hist = h
			return s
		}
	}
	s.Hists = append(s.Hists, HistStat{Name: name, Hist: h})
	return s
}

// PutInfo appends (or updates) a string annotation on the node.
func (s *Snapshot) PutInfo(name, value string) *Snapshot {
	for i := range s.Infos {
		if s.Infos[i].Name == name {
			s.Infos[i].Value = value
			return s
		}
	}
	s.Infos = append(s.Infos, Info{Name: name, Value: value})
	return s
}

// GetInfo returns the named annotation's value and whether it exists.
func (s Snapshot) GetInfo(name string) (string, bool) {
	for _, in := range s.Infos {
		if in.Name == name {
			return in.Value, true
		}
	}
	return "", false
}

// Get returns the named counter's value and whether it exists.
func (s Snapshot) Get(name string) (uint64, bool) {
	for _, st := range s.Stats {
		if st.Name == name {
			return st.Value, true
		}
	}
	return 0, false
}

// Child returns the named child node, or nil.
func (s *Snapshot) Child(name string) *Snapshot {
	for i := range s.Children {
		if s.Children[i].Name == name {
			return &s.Children[i]
		}
	}
	return nil
}

// WriteText renders the tree as an indented human-readable dump —
// the payload of a /debug/arcvars text endpoint.
func (s Snapshot) WriteText(w io.Writer) {
	s.writeText(w, 0)
}

func (s Snapshot) writeText(w io.Writer, depth int) {
	indent := strings.Repeat("  ", depth)
	name := s.Name
	if name == "" {
		name = "stats"
	}
	fmt.Fprintf(w, "%s%s:\n", indent, name)
	for _, st := range s.Stats {
		fmt.Fprintf(w, "%s  %-24s %d\n", indent, st.Name, st.Value)
	}
	for _, h := range s.Hists {
		fmt.Fprintf(w, "%s  %-24s %s\n", indent, h.Name, h.Hist.String())
	}
	for _, in := range s.Infos {
		fmt.Fprintf(w, "%s  %-24s %s\n", indent, in.Name, in.Value)
	}
	for _, c := range s.Children {
		c.writeText(w, depth+1)
	}
}

// String renders the tree as the WriteText dump.
func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}

// appendJSON renders the node as a JSON object, hand-encoded to keep
// insertion order (encoding/json sorts map keys and obs promises
// deterministic renderings).
func (s Snapshot) appendJSON(b *strings.Builder) {
	b.WriteByte('{')
	b.WriteString(`"name":`)
	b.WriteString(strconv.Quote(s.Name))
	if len(s.Stats) > 0 {
		b.WriteString(`,"stats":{`)
		for i, st := range s.Stats {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(st.Name))
			b.WriteByte(':')
			b.WriteString(strconv.FormatUint(st.Value, 10))
		}
		b.WriteByte('}')
	}
	if len(s.Hists) > 0 {
		b.WriteString(`,"hists":{`)
		for i, h := range s.Hists {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(h.Name))
			fmt.Fprintf(b, `:{"count":%d,"mean_ns":%.0f,"p50_ns":%.0f,"p99_ns":%.0f,"max_ns":%d}`,
				h.Hist.Count(), h.Hist.Mean(), h.Hist.Quantile(0.5), h.Hist.Quantile(0.99), h.Hist.Max())
		}
		b.WriteByte('}')
	}
	if len(s.Infos) > 0 {
		b.WriteString(`,"info":{`)
		for i, in := range s.Infos {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(in.Name))
			b.WriteByte(':')
			b.WriteString(strconv.Quote(in.Value))
		}
		b.WriteByte('}')
	}
	if len(s.Children) > 0 {
		b.WriteString(`,"children":[`)
		for i, c := range s.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			c.appendJSON(b)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
}

// JSON renders the tree as a JSON document with deterministic key
// order — the expvar payload.
func (s Snapshot) JSON() string {
	var b strings.Builder
	s.appendJSON(&b)
	return b.String()
}

// Source yields a point-in-time Stats tree. Implementations must be
// safe to call from any goroutine at any time — that is the contract
// that makes a Source exportable through expvar.
type Source interface {
	Stats() Snapshot
}

// SourceFunc adapts a function to Source.
type SourceFunc func() Snapshot

// Stats implements Source.
func (f SourceFunc) Stats() Snapshot { return f() }

// Var adapts a Source to expvar.Var: String renders the live tree as
// JSON. Publish it with expvar.Publish (or arcreg.Observe) and the
// stdlib /debug/vars endpoint serves the tree.
type Var struct {
	Source Source
}

// String implements expvar.Var (and fmt.Stringer).
func (v Var) String() string {
	if v.Source == nil {
		return "{}"
	}
	return v.Source.Stats().JSON()
}
