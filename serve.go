package arcreg

// The HTTP serving facade: a MapOf over the wire, preserving the register's
// contracts at the network edge. GETs ride pooled wait-free readers
// (zero RMW, zero allocation for an unchanged value), writes are
// serialized per shard through bounded single-writer queues (overload
// answers 503 + Retry-After; the queue never grows unboundedly), and
// watch streams ride the notification layer with latest-value
// conflation as the backpressure story — a slow client sees fewer,
// newer values and costs the server O(1) memory. DESIGN.md §11 gives
// the design; internal/serve implements it; cmd/arcserve is the
// standalone binary.

import (
	"fmt"
	"net"
	"net/http"

	"arcreg/internal/serve"
)

// HTTPOptions tunes an HTTP handler over a map. The zero value is
// usable: 8 pooled readers, 64 watch streams, 128-deep write queues, no
// expvar registration. Sheds carry a 1s Retry-After, and a long-poll
// waits at most 30s (?poll= shortens it).
type HTTPOptions struct {
	// Readers is the pooled GET reader-handle count (default 8). Pool
	// handles plus watch streams must fit the map's MaxReaders budget.
	Readers int
	// WatchStreams caps concurrent watch streams (default 64); beyond
	// it, watch requests shed with 503 + Retry-After.
	WatchStreams int
	// QueueDepth bounds each shard's write queue (default 128); beyond
	// it, writes shed with 503 + Retry-After.
	QueueDepth int
	// ExpvarName, when set, publishes the handler's stats tree under
	// this expvar name (GET /debug/vars).
	ExpvarName string
}

// HTTPHandler serves a map over HTTP:
//
//	GET    /k/{key}        value bytes (404 absent, 503+Retry-After degraded)
//	PUT    /k/{key}        store body (204; 503 queue full, 413 too large)
//	DELETE /k/{key}        delete (204; 404 absent)
//	GET    /watch/{key}    SSE value stream (?b64=1 base64; ?poll=5s long-poll)
//	GET    /watch          SSE whole-map snapshot-delta stream
//	GET    /keys           live key listing (JSON)
//	POST   /compact        compact every shard through the writer queues
//	GET    /statz          stats tree (text; ?format=json)
//
// The handler owns write access to the map: route all writes through
// its Set/Delete/Compact (or HTTP), which serialize onto per-shard
// writer goroutines — calling MapOf.Set directly beside a live handler
// would put two writers on one shard. Readers are unaffected: the map's
// own MapOfReader handles stay valid alongside the handler's pool.
type HTTPHandler struct {
	s *serve.Server
}

// NewHTTPHandler builds the serving layer over m: a reader pool, one
// writer goroutine per shard, and the route table above. Close releases
// them. The handler's pooled readers and watch streams are counted
// against m's MaxReaders; NewHTTPHandler fails if they do not fit. It
// serves the stored encodings whatever T is: GET and watch frames carry
// a value's bytes under m's codec, and a value written through the
// handler must decode under it — a PUT body that does not answers 400
// and is never stored (under Raw every body decodes).
func NewHTTPHandler[T any](m *MapOf[T], o HTTPOptions) (*HTTPHandler, error) {
	s, err := serve.New(serve.Config{
		Map:          m.m,
		Readers:      o.Readers,
		WatchStreams: o.WatchStreams,
		QueueDepth:   o.QueueDepth,
		ExpvarName:   o.ExpvarName,
		Check: func(p []byte) error {
			if _, err := m.c.Decode(p); err != nil {
				return fmt.Errorf("arcreg: value does not decode under codec %s: %w", m.c.Name(), err)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &HTTPHandler{s: s}, nil
}

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.s.ServeHTTP(w, r) }

// ConnState is an optional http.Server.ConnState hook that feeds the
// handler's connection counters (conns_accepted, conns_active).
func (h *HTTPHandler) ConnState(c net.Conn, st http.ConnState) { h.s.ConnState(c, st) }

// Set publishes val under key through key's shard writer queue — the
// in-process counterpart of PUT /k/{key}, safe from any goroutine. val
// is an encoding under the map's codec; one that does not decode is
// refused with an error wrapping the codec's.
func (h *HTTPHandler) Set(key string, val []byte) error { return h.s.Set(key, val) }

// Delete removes key through its shard writer queue (see MapOf.Delete).
func (h *HTTPHandler) Delete(key string) error { return h.s.Delete(key) }

// Compact compacts every shard through the writer queues (see
// MapOf.Compact).
func (h *HTTPHandler) Compact() error { return h.s.Compact() }

// Stats returns the serving layer's own stats node — request and shed
// counters, reader-pool fold-ins (read_ops/read_fastpath/read_rmw),
// per-shard apply counts, and the live watcher ledger roll-up. The
// map's tree remains available via MapOf.Stats; /statz serves both.
func (h *HTTPHandler) Stats() Stats { return h.s.Stats() }

// StatsTree returns the combined observability root /statz and /metricz
// serve: the handler's node, the map's node, and a process node
// (uptime, Go version, GOMAXPROCS, build revision) as siblings.
func (h *HTTPHandler) StatsTree() Stats { return h.s.StatsTree() }

// DebugMux returns an admin-plane mux — net/http/pprof, /debug/vars
// (expvar), /debug/trace, /statz and /metricz — for serving on a
// separate listener so profiling and scraping never contend with the
// data plane (cmd/arcserve mounts it on -debug-addr). The data-plane
// handler also serves /statz, /metricz and /debug/trace itself; the
// pprof handlers are only here.
func (h *HTTPHandler) DebugMux() *http.ServeMux { return h.s.DebugMux() }

// Close stops the shard writers, severs every watch stream, and closes
// the pooled readers. Shut the surrounding http.Server down first so no
// handler is mid-request.
func (h *HTTPHandler) Close() error { return h.s.Close() }
