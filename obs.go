package arcreg

// The public observability surface: one Stats tree shape shared by
// every register shape, the map, and the notification layer, with a
// stdlib-only export path (expvar) and a human-readable text dump.
//
// The tree is produced by walkers on demand — registers record nothing
// extra on their hot paths for it (reads stay zero-RMW, the no-waiter
// publish stays counter-free). DESIGN.md §10 describes the recording
// discipline: which counters are live cells readable mid-run, and
// which are plain per-handle counters that enter the tree through the
// Snapshot converters on ReadStats and WriteStats, collected at
// quiescence.

import (
	"expvar"
	"io"

	"arcreg/internal/metrics"
	"arcreg/internal/obs"
	"arcreg/internal/trace"
)

// Stats is one node of the observability tree: a name, flat counters,
// optional latency histograms, and child nodes. Reg.Stats and Map.Stats
// return the root of their component's tree; Get, Child and WriteText
// navigate it, JSON renders it for export.
type Stats = obs.Snapshot

// Stat is one named counter in a Stats node.
type Stat = obs.Stat

// HistStat is one named histogram in a Stats node.
type HistStat = obs.HistStat

// Histogram is the fixed-size log-bucketed latency histogram the
// Stats tree embeds (wakeup latency, snapshot retries): Count, Mean,
// Quantile and Max summarize it, Merge combines populations.
type Histogram = metrics.Histogram

// StatsSource is anything that produces a Stats tree on demand —
// Reg[T], Map and MapOf[T] all implement it, as does
// StatsRegistry for composing several of them.
type StatsSource = obs.Source

// StatsSourceFunc adapts a plain function to StatsSource.
type StatsSourceFunc = obs.SourceFunc

// StatsVar adapts a StatsSource to expvar.Var: String renders the
// live tree as JSON, so the stdlib /debug/vars endpoint serves it
// with no additional dependencies. Observe wraps the common case.
type StatsVar = obs.Var

// StatsRegistry composes named StatsSources into one tree: Stats
// returns a root node whose children are the registered sources'
// snapshots in name order. Use one registry per process to export
// several registers and maps under a single expvar name.
type StatsRegistry = obs.Registry

// StatInfo is one named string annotation in a Stats node — build
// revision, Go version, listen address: facts that are not counters.
type StatInfo = obs.Info

// WriteProm renders a Stats tree in the Prometheus text exposition
// format (version 0.0.4), stdlib only: counters as untyped samples
// named <prefix>_<path>_<name>, histograms as the standard
// _bucket/_sum/_count triples with log₂ le bounds, Infos folded into
// <prefix>_<path>_info gauges. The HTTP handler serves exactly this on
// GET /metricz; WriteProm is the same rendering for processes that
// embed the map without the serving layer:
//
//	http.HandleFunc("/metricz", func(w http.ResponseWriter, _ *http.Request) {
//		arcreg.WriteProm(w, "myapp", m.Stats())
//	})
func WriteProm(w io.Writer, prefix string, sn Stats) {
	obs.WriteProm(w, prefix, sn)
}

// Tracer is the keyed store's always-on flight recorder (enable with
// WithTrace; obtain with Map.Tracer). Each single-writer domain under
// the map — shard writers, wakeup-tree root relays, watch sessions —
// records fixed-size events into an owner-plain ring buffer, adding
// zero RMW instructions and zero allocations to the paths it
// instruments. Walk it with Spans (reconstructed publish→deliver spans
// threaded by origin-publication stamps), Breakdown (per-stage latency
// histograms), WriteJSON/WriteText (the /debug/trace renderings), or
// Stats (a Stats-tree node, folded into Map.Stats automatically).
type Tracer = trace.Tracer

// TraceSpan is one reconstructed publish→deliver span: every recorded
// event sharing one origin publication stamp, in timestamp order.
type TraceSpan = trace.Span

// TraceEvent is one flight-recorder event, labeled with the ring (the
// single-writer domain) it was recorded into.
type TraceEvent = trace.SpanEvent

// TraceStage identifies which pipeline stage recorded an event.
type TraceStage = trace.Stage

// The stages of a publish→deliver span, in causal order: the register
// publish, the wakeup tree's root cascade, the watcher unpark, the
// delivery/conflation decision, and the SSE frame flush.
const (
	StagePublish  = trace.StagePublish
	StageCascade  = trace.StageCascade
	StageWake     = trace.StageWake
	StageConflate = trace.StageConflate
	StageFlush    = trace.StageFlush
)

// Observe publishes src's live Stats tree in the process-wide expvar
// registry under name, making it available on the stdlib
// /debug/vars endpoint (and to expvar.Do walkers):
//
//	reg, _ := arcreg.New[Config]()
//	arcreg.Observe("arcreg", reg)
//	// GET /debug/vars  →  {..., "arcreg": {"name":"register", ...}, ...}
//
// The tree is walked lazily on each render; publishing costs the
// register nothing until something scrapes it. Like expvar.Publish,
// Observe panics if name is already published — call it once per
// name, at wiring time.
func Observe(name string, src StatsSource) {
	expvar.Publish(name, obs.Var{Source: src})
}
