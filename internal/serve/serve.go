// Package serve is the network edge over the register map: a
// stdlib-only HTTP layer that carries regmap's wait-free-read,
// single-writer-per-shard contract out to N network clients instead of
// N goroutines.
//
// The structural commitments, in order of importance:
//
//   - Reads stay wait-free end to end. GET /k/{key} borrows an
//     exclusive *regmap.Reader from a fixed pool, performs the 2-load
//     0-RMW Get, and writes the returned view straight into the
//     response — no copy, no allocation on the steady-state path for
//     an unchanged value. The view stays valid until that handle's
//     next Get of the same key, and the handle is not released until
//     the response write returns, so zero-copy is safe.
//
//   - Writes stay (1,N). regmap shards are single-writer; HTTP is
//     arbitrarily concurrent. The bridge is one mpsc channel + one
//     writer goroutine per shard: every PUT/DELETE (and every
//     compaction or chaos injection routed through Do) is enqueued to
//     its shard's bounded queue and applied by that shard's sole
//     writer. A full queue sheds the request with 503 + Retry-After
//     rather than queueing unboundedly — overload surfaces at the
//     edge, not as memory.
//
//   - Slow watch clients conflate instead of buffering. SSE and
//     long-poll streams ride the PR 5 Watch engine: a stream that
//     cannot drain blocks only its own goroutine; when it comes back,
//     Watch re-reads the freshest value and the skipped publications
//     are recorded as conflation in the per-watcher ledger. The server
//     holds no per-client event queue at all, so a slow client's
//     memory cost is O(1) forever.
//
// Everything observable lands in a "serve" obs.Snapshot node
// (Server.Stats) beside the map's own tree, served on GET /statz and,
// via expvar, /debug/vars.
package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/fault"
	"arcreg/internal/obs"
	"arcreg/internal/regmap"
	"arcreg/internal/trace"
)

// Defaults for Config zero values.
const (
	DefaultReaders      = 8
	DefaultWatchStreams = 64
	DefaultQueueDepth   = 128
)

// DefaultRetryAfter is the hint sent with every shed response (the
// Retry-After header, in whole seconds), and DefaultLongPollTimeout caps
// a long-poll park; expiry returns 204 No Content, and ?poll= may only
// shorten it.
const (
	DefaultRetryAfter      = time.Second
	DefaultLongPollTimeout = 30 * time.Second
)

// retryAfter is DefaultRetryAfter as the Retry-After header value.
var retryAfter = strconv.Itoa(int(DefaultRetryAfter / time.Second))

// Config describes one Server over one map.
type Config struct {
	// Map is the store to serve. The Server takes over the writer role
	// for every shard: after New, all writes must go through the
	// Server (HTTP or the Set/Delete/Compact/Do methods), never
	// through Map.Set directly — shards are single-writer.
	Map *regmap.Map
	// Readers is the GET/keys reader-pool size (default
	// DefaultReaders, clamped to the map's spare reader capacity).
	// Each pooled handle serves one request at a time; requests beyond
	// the pool wait for a handle rather than failing.
	Readers int
	// WatchStreams bounds concurrent watch streams — SSE and long-poll
	// together (default DefaultWatchStreams). Each stream owns a
	// dedicated map reader for its lifetime; beyond the bound, watch
	// requests are shed with 503.
	WatchStreams int
	// QueueDepth is the per-shard write-queue bound (default
	// DefaultQueueDepth). A full queue sheds with 503 + Retry-After.
	QueueDepth int
	// ExpvarName, when non-empty, publishes the server's combined
	// stats tree (serve + map) in the process-wide expvar registry
	// under that name. Like expvar.Publish, a duplicate name panics —
	// one Server per name per process.
	ExpvarName string
	// Check, when set, vets a value before it is queued: a PUT body it
	// rejects answers 400 and Set returns its error, so nothing the
	// map's readers cannot decode is stored. Nil accepts any bytes.
	Check func([]byte) error
}

// Server is the HTTP layer. It implements http.Handler; mount it at
// the root of an http.Server (and wire ConnState for connection
// accounting).
//
// Routes:
//
//	GET    /k/{key}          value bytes (pooled wait-free read)
//	PUT    /k/{key}          set from body (per-shard writer queue)
//	DELETE /k/{key}          delete (per-shard writer queue)
//	GET    /watch/{key}      SSE value stream; ?poll=1 or ?poll=5s
//	                         long-polls the next change instead
//	GET    /watch            SSE whole-map snapshot-delta stream (JSON)
//	GET    /keys             JSON key list
//	POST   /compact          compact every shard (through the queues)
//	GET    /statz            stats tree (text; ?format=json for JSON)
//	GET    /debug/vars       stdlib expvar
type Server struct {
	m   *regmap.Map
	mux *http.ServeMux

	pool     chan *connReader
	watchSem chan struct{}
	queues   []chan *writeReq
	reqPool  sync.Pool
	bufPool  sync.Pool

	baseCtx context.Context
	cancel  context.CancelFunc
	writers sync.WaitGroup
	closed  atomic.Bool

	maxValue    int
	check       func([]byte) error
	watchBudget int
	start       time.Time // process-info anchor for /statz uptime

	st     serveCounters
	shards []shardCells
}

// serveCounters are the handler-side counters. Handlers run on
// arbitrary goroutines, so these are plain atomics — NOT obs.Cells
// (whose Add is single-writer). The tier argument from DESIGN.md §10
// still holds: every one of these rides a path that just paid for a
// syscall, so a LOCK ADD is noise; the register read itself stays
// 0-RMW and is accounted separately via the pooled handles' ReadStats
// deltas (folded in at release time, when the handle is quiescent).
type serveCounters struct {
	connsAccepted atomic.Uint64
	connsActive   atomic.Int64

	reqGet      atomic.Uint64
	reqPut      atomic.Uint64
	reqDelete   atomic.Uint64
	reqWatch    atomic.Uint64
	reqWatchAll atomic.Uint64
	reqStatz    atomic.Uint64
	reqOther    atomic.Uint64

	getHits   atomic.Uint64
	getMisses atomic.Uint64
	degraded  atomic.Uint64

	shedWrites atomic.Uint64
	shedWatch  atomic.Uint64

	watchStreams atomic.Int64 // live gauge
	watchEvents  atomic.Uint64
	longPolls    atomic.Uint64

	readOps      atomic.Uint64
	readFastPath atomic.Uint64
	readRMW      atomic.Uint64

	aborted  atomic.Uint64
	bytesOut atomic.Uint64
}

// shardCells are one shard writer goroutine's counters. Exactly one
// goroutine ever calls Add on them, so they are obs.Cells — the
// single-writer recording discipline, same as the register's own.
type shardCells struct {
	sets    obs.Cell
	deletes obs.Cell
	dos     obs.Cell
	errs    obs.Cell
}

// connReader is one pooled reader handle plus the ReadStats watermark
// from its last release, so each release folds only the delta into
// the server totals.
type connReader struct {
	rd   *regmap.Reader
	last regmap.ReadStats
}

// writeReq is one queued write. done has capacity 1 so the shard
// writer's completion send never blocks, even if the requester has
// abandoned the wait.
type writeReq struct {
	op   byte
	key  string
	val  []byte
	bp   *[]byte // pooled backing buffer for val (opSet)
	fn   func(*regmap.Map) error
	done chan error
}

const (
	opSet byte = iota
	opDelete
	opDo
)

var (
	errClosed   = errors.New("serve: server closed")
	errTooLarge = errors.New("serve: value exceeds MaxValueSize")

	contentTypeOctet = []string{"application/octet-stream"}
	contentTypeSSE   = []string{"text/event-stream"}
	noCache          = []string{"no-cache"}
)

// New builds a Server over cfg.Map, allocating the reader pool eagerly
// and starting one writer goroutine per shard. The pool plus the watch
// budget must fit the map's remaining reader capacity.
func New(cfg Config) (*Server, error) {
	if cfg.Map == nil {
		return nil, errors.New("serve: Config.Map is required")
	}
	if cfg.Readers <= 0 {
		cfg.Readers = DefaultReaders
	}
	if cfg.WatchStreams <= 0 {
		cfg.WatchStreams = DefaultWatchStreams
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	m := cfg.Map
	spare := m.MaxReaders() - m.LiveReaders()
	if cfg.Readers+cfg.WatchStreams > spare {
		return nil, fmt.Errorf("serve: Readers (%d) + WatchStreams (%d) exceed the map's spare reader capacity (%d)",
			cfg.Readers, cfg.WatchStreams, spare)
	}

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		m:           m,
		pool:        make(chan *connReader, cfg.Readers),
		watchSem:    make(chan struct{}, cfg.WatchStreams),
		queues:      make([]chan *writeReq, m.Shards()),
		baseCtx:     ctx,
		cancel:      cancel,
		maxValue:    m.MaxValueSize(),
		check:       cfg.Check,
		watchBudget: cfg.WatchStreams,
		start:       time.Now(),
		shards:      make([]shardCells, m.Shards()),
	}
	s.reqPool.New = func() any { return &writeReq{done: make(chan error, 1)} }
	s.bufPool.New = func() any {
		b := make([]byte, s.maxValue+1)
		return &b
	}
	for i := 0; i < cfg.Readers; i++ {
		rd, err := m.NewReader()
		if err != nil {
			cancel()
			s.drainPool()
			return nil, err
		}
		s.pool <- &connReader{rd: rd}
	}
	for si := range s.queues {
		s.queues[si] = make(chan *writeReq, cfg.QueueDepth)
		s.writers.Add(1)
		go s.shardWriter(si)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /k/{key...}", s.handleGet)
	mux.HandleFunc("PUT /k/{key...}", s.handlePut)
	mux.HandleFunc("DELETE /k/{key...}", s.handleDelete)
	mux.HandleFunc("GET /watch/{key...}", s.handleWatchKey)
	mux.HandleFunc("GET /watch", s.handleWatchAll)
	mux.HandleFunc("GET /keys", s.handleKeys)
	mux.HandleFunc("POST /compact", s.handleCompact)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux

	if cfg.ExpvarName != "" {
		expvar.Publish(cfg.ExpvarName, obs.Var{Source: obs.SourceFunc(s.StatsTree)})
	}
	return s, nil
}

// ServeHTTP dispatches, converting an injected fault.Crashed panic
// into http.ErrAbortHandler: net/http drops the connection without a
// reply — a genuine mid-response disconnect — instead of logging a
// handler crash.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(fault.Crashed); !ok {
				panic(p)
			}
			s.st.aborted.Add(1)
			panic(http.ErrAbortHandler)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// ConnState is the http.Server.ConnState hook for connection
// accounting (conns_accepted, conns_active).
func (s *Server) ConnState(_ net.Conn, st http.ConnState) {
	switch st {
	case http.StateNew:
		s.st.connsAccepted.Add(1)
		s.st.connsActive.Add(1)
	case http.StateClosed, http.StateHijacked:
		s.st.connsActive.Add(-1)
	}
}

// Close stops the shard writers, ends every watch stream, and closes
// the pooled readers. Shut the http.Server down first so no handler is
// mid-request.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.cancel()
	s.writers.Wait()
	s.drainPool()
	return nil
}

func (s *Server) drainPool() {
	for {
		select {
		case c := <-s.pool:
			c.rd.Close()
		default:
			return
		}
	}
}

// ---- reader pool ----

// acquire borrows an exclusive pooled reader, waiting (bounded by the
// request context) when every handle is busy — reads queue at the
// pool, they do not fail under load.
func (s *Server) acquire(ctx context.Context) (*connReader, error) {
	select {
	case c := <-s.pool:
		return c, nil
	default:
	}
	select {
	case c := <-s.pool:
		return c, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.baseCtx.Done():
		return nil, errClosed
	}
}

// release folds the handle's ReadStats delta into the server totals
// (the handle is quiescent here, so the plain per-handle counters are
// safe to read) and returns it to the pool.
func (s *Server) release(c *connReader) {
	cur := c.rd.Stats()
	s.st.readOps.Add(cur.Ops - c.last.Ops)
	s.st.readFastPath.Add(cur.FastPath - c.last.FastPath)
	s.st.readRMW.Add(cur.RMW - c.last.RMW)
	c.last = cur
	if s.closed.Load() {
		c.rd.Close()
		return
	}
	select {
	case s.pool <- c:
	default:
		c.rd.Close() // unreachable: the pool is sized to hold every handle
	}
}

// ---- shard writer goroutines ----

// shardWriter is shard si's single writer: the only goroutine that
// ever calls Set/Delete/Compact (or a Do closure) on that shard, which
// is what preserves regmap's (1,N) discipline under arbitrary HTTP
// concurrency.
func (s *Server) shardWriter(si int) {
	defer s.writers.Done()
	q := s.queues[si]
	cells := &s.shards[si]
	for {
		select {
		case req := <-q:
			var err error
			switch req.op {
			case opSet:
				err = s.m.Set(req.key, req.val)
				if err == nil {
					cells.sets.Add(1)
				}
			case opDelete:
				err = s.m.Delete(req.key)
				if err == nil {
					cells.deletes.Add(1)
				}
			case opDo:
				err = req.fn(s.m)
				if err == nil {
					cells.dos.Add(1)
				}
			}
			if err != nil {
				cells.errs.Add(1)
			}
			req.done <- err
		case <-s.baseCtx.Done():
			return
		}
	}
}

// enqueue try-sends req to its shard queue; a full queue is overload
// and sheds immediately (the caller answers 503 + Retry-After).
func (s *Server) enqueue(si int, req *writeReq) bool {
	select {
	case s.queues[si] <- req:
		return true
	default:
		return false
	}
}

// await waits for the shard writer's completion. After a successful
// wait the req (and its body buffer) are recycled; on server shutdown
// the req is abandoned to the GC — the writer may still hold it.
func (s *Server) await(req *writeReq) (error, bool) {
	select {
	case err := <-req.done:
		s.recycle(req)
		return err, true
	case <-s.baseCtx.Done():
		return errClosed, false
	}
}

func (s *Server) recycle(req *writeReq) {
	if req.bp != nil {
		s.bufPool.Put(req.bp)
	}
	req.key, req.val, req.bp, req.fn = "", nil, nil, nil
	s.reqPool.Put(req)
}

// submit enqueues op for key's shard and waits; used by the in-process
// write API (facade, chaos, tests). Unlike the HTTP path it blocks on
// a full queue instead of shedding — in-process callers want the
// write, not a 503.
func (s *Server) submit(si int, op byte, key string, fn func(*regmap.Map) error) error {
	req := s.reqPool.Get().(*writeReq)
	req.op, req.key, req.fn = op, key, fn
	select {
	case s.queues[si] <- req:
	case <-s.baseCtx.Done():
		s.recycle(req)
		return errClosed
	}
	err, _ := s.await(req)
	return err
}

// Set routes an in-process write through key's shard writer. The value
// is copied before enqueueing (the register copies again on publish;
// in-process writes are not the hot path — HTTP PUT reuses pooled
// buffers instead).
func (s *Server) Set(key string, val []byte) error {
	if len(val) > s.maxValue {
		return errTooLarge
	}
	if s.check != nil {
		if err := s.check(val); err != nil {
			return err
		}
	}
	req := s.reqPool.Get().(*writeReq)
	bp := s.bufPool.Get().(*[]byte)
	n := copy((*bp)[:s.maxValue], val)
	req.op, req.key, req.val, req.bp = opSet, key, (*bp)[:n], bp
	si := s.m.ShardOf(key)
	select {
	case s.queues[si] <- req:
	case <-s.baseCtx.Done():
		s.recycle(req)
		return errClosed
	}
	err, _ := s.await(req)
	return err
}

// Delete routes an in-process delete through key's shard writer.
func (s *Server) Delete(key string) error {
	return s.submit(s.m.ShardOf(key), opDelete, key, nil)
}

// Compact routes a compaction of every shard through the shard
// writers — the writer role owns compaction, same as Set.
func (s *Server) Compact() error {
	var first error
	for si := 0; si < s.m.Shards(); si++ {
		i := si
		if err := s.submit(si, opDo, "", func(m *regmap.Map) error { return m.CompactShard(i) }); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Do runs fn under shard si's writer role — the bridge the chaos
// suite uses to inject corruption (a publisher-side operation) without
// violating single-writer-per-shard.
func (s *Server) Do(si int, fn func(*regmap.Map) error) error {
	return s.submit(si, opDo, "", fn)
}

// ---- key read/write handlers ----

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.st.reqGet.Add(1)
	key := r.PathValue("key")
	if key == "" {
		http.Error(w, "empty key", http.StatusBadRequest)
		return
	}
	c, err := s.acquire(r.Context())
	if err != nil {
		s.shedRead(w)
		return
	}
	defer s.release(c)
	s.writeKeyValue(w, c, key)
}

// writeKeyValue is the steady-state hot path: one wait-free Get, then
// the view written straight to the socket. Zero allocation for an
// unchanged value (guard-tested) — the header is assigned a
// preallocated slice, the view is the register's own buffer, and
// net/http supplies Content-Length itself for a single Write.
func (s *Server) writeKeyValue(w http.ResponseWriter, c *connReader, key string) {
	v, err := c.rd.Get(key)
	switch {
	case err == nil:
	case errors.Is(err, regmap.ErrKeyNotFound):
		s.st.getMisses.Add(1)
		http.Error(w, "key not found", http.StatusNotFound)
		return
	case errors.Is(err, regmap.ErrShardCorrupt):
		s.degradedResp(w)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.st.getHits.Add(1)
	faultMidResponse.Hit()
	w.Header()["Content-Type"] = contentTypeOctet
	w.Write(v)
	s.st.bytesOut.Add(uint64(len(v)))
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	s.st.reqPut.Add(1)
	key := r.PathValue("key")
	if key == "" {
		http.Error(w, "empty key", http.StatusBadRequest)
		return
	}
	bp := s.bufPool.Get().(*[]byte)
	buf := (*bp)[:s.maxValue+1]
	n, err := readBody(r.Body, buf)
	if err != nil {
		s.bufPool.Put(bp)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if n > s.maxValue {
		s.bufPool.Put(bp)
		http.Error(w, fmt.Sprintf("value exceeds MaxValueSize %d", s.maxValue), http.StatusRequestEntityTooLarge)
		return
	}
	if s.check != nil {
		if err := s.check(buf[:n]); err != nil {
			s.bufPool.Put(bp)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	req := s.reqPool.Get().(*writeReq)
	req.op, req.key, req.val, req.bp = opSet, key, buf[:n], bp
	if !s.enqueue(s.m.ShardOf(key), req) {
		s.recycle(req)
		s.shedWrite(w)
		return
	}
	werr, ok := s.await(req)
	if !ok {
		s.shedWrite(w)
		return
	}
	s.writeErr(w, werr)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.st.reqDelete.Add(1)
	key := r.PathValue("key")
	if key == "" {
		http.Error(w, "empty key", http.StatusBadRequest)
		return
	}
	req := s.reqPool.Get().(*writeReq)
	req.op, req.key = opDelete, key
	if !s.enqueue(s.m.ShardOf(key), req) {
		s.recycle(req)
		s.shedWrite(w)
		return
	}
	werr, ok := s.await(req)
	if !ok {
		s.shedWrite(w)
		return
	}
	s.writeErr(w, werr)
}

// writeErr maps a completed write's error onto a status: 204 on
// success, 404 for a missing delete target, 507 for a full directory
// (the ceiling is a capacity condition, not overload — retrying
// without a compaction won't help), 503 for a corrupt shard (the next
// publication repairs it).
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, regmap.ErrKeyNotFound):
		s.st.getMisses.Add(1)
		http.Error(w, "key not found", http.StatusNotFound)
	case errors.Is(err, regmap.ErrDirectoryFull):
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
	case errors.Is(err, regmap.ErrShardCorrupt):
		s.degradedResp(w)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) shedWrite(w http.ResponseWriter) {
	s.st.shedWrites.Add(1)
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, "write queue full", http.StatusServiceUnavailable)
}

func (s *Server) shedRead(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, "no reader available", http.StatusServiceUnavailable)
}

func (s *Server) degradedResp(w http.ResponseWriter) {
	s.st.degraded.Add(1)
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, "shard degraded; repair pending", http.StatusServiceUnavailable)
}

// readBody fills buf from r, returning the byte count. It tolerates a
// missing EOF after a full buffer read only by reporting n=len(buf),
// which the caller rejects as oversized.
func readBody(r io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := r.Read(buf[n:])
		n += k
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ---- watch handlers ----

// watchCtx derives the stream context: canceled by the client
// (request context) or by server Close.
func (s *Server) watchCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// acquireWatch claims one watch-stream slot and a dedicated reader.
func (s *Server) acquireWatch(w http.ResponseWriter) (*regmap.Reader, func(), bool) {
	select {
	case s.watchSem <- struct{}{}:
	default:
		s.st.shedWatch.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "watch streams exhausted", http.StatusServiceUnavailable)
		return nil, nil, false
	}
	rd, err := s.m.NewReader()
	if err != nil {
		<-s.watchSem
		s.st.shedWatch.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return nil, nil, false
	}
	s.st.watchStreams.Add(1)
	release := func() {
		rd.Close()
		<-s.watchSem
		s.st.watchStreams.Add(-1)
	}
	return rd, release, true
}

func (s *Server) handleWatchKey(w http.ResponseWriter, r *http.Request) {
	s.st.reqWatch.Add(1)
	key := r.PathValue("key")
	if key == "" {
		http.Error(w, "empty key", http.StatusBadRequest)
		return
	}
	if p := r.URL.Query().Get("poll"); p != "" {
		s.longPollKey(w, r, key, p)
		return
	}
	rd, release, ok := s.acquireWatch(w)
	if !ok {
		return
	}
	defer release()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ctx, cancel := s.watchCtx(r)
	defer cancel()
	b64 := r.URL.Query().Get("b64") == "1"
	h := w.Header()
	h["Content-Type"] = contentTypeSSE
	h["Cache-Control"] = noCache
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	scratch := make([]byte, 0, 512)
	for v, err := range rd.Watch(ctx, key) {
		switch {
		case err == nil:
			scratch = appendEvent(scratch[:0], "value", v, b64)
		case errors.Is(err, regmap.ErrKeyNotFound):
			scratch = appendEvent(scratch[:0], "deleted", nil, false)
		case errors.Is(err, regmap.ErrShardCorrupt):
			s.st.degraded.Add(1)
			scratch = appendEvent(scratch[:0], "degraded", nil, false)
		default:
			return // context canceled: client gone or server closing
		}
		faultSlowClient.Hit()
		if _, werr := w.Write(scratch); werr != nil {
			return
		}
		// Count the event before the flush hands it to the client, so a
		// client that has read n events never sees watch_events < n.
		s.st.watchEvents.Add(1)
		s.st.bytesOut.Add(uint64(len(scratch)))
		fl.Flush()
		// Flight recorder: the span's terminal stage — this SSE frame
		// left for the socket. Recorded by the connection goroutine into
		// the stream reader's lane (the same single-writer domain that
		// just recorded the wake and the conflation decision); the span
		// is the origin publish stamp the wake carried. Nil-safe on
		// untraced maps or exhausted lane pools.
		rd.TraceRing().Record(trace.StageFlush, 0, rd.LastWake(), uint64(len(scratch)))
	}
}

// longPollKey parks until key's next change (skipping the Watch
// iterator's initial current-state yield): 200 + value on change, 404
// if the change is a deletion, 503 if the shard degrades, 204 on
// timeout.
func (s *Server) longPollKey(w http.ResponseWriter, r *http.Request, key, pollArg string) {
	s.st.longPolls.Add(1)
	timeout := DefaultLongPollTimeout
	if d, err := time.ParseDuration(pollArg); err == nil && d > 0 && d < timeout {
		timeout = d
	}
	rd, release, ok := s.acquireWatch(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.watchCtx(r)
	defer cancel()
	pctx, pcancel := context.WithTimeout(ctx, timeout)
	defer pcancel()
	first := true
	for v, err := range rd.Watch(pctx, key) {
		if first && (err == nil || errors.Is(err, regmap.ErrKeyNotFound)) {
			first = false // current state; a long-poll wants the next change
			continue
		}
		switch {
		case err == nil:
			w.Header()["Content-Type"] = contentTypeOctet
			w.Write(v)
			// A long-poll response is a one-frame stream: same terminal
			// span stage as the SSE flush.
			rd.TraceRing().Record(trace.StageFlush, 0, rd.LastWake(), uint64(len(v)))
			s.st.watchEvents.Add(1)
			s.st.bytesOut.Add(uint64(len(v)))
		case errors.Is(err, regmap.ErrKeyNotFound):
			http.Error(w, "key deleted", http.StatusNotFound)
		case errors.Is(err, regmap.ErrShardCorrupt):
			s.degradedResp(w)
		case pctx.Err() != nil && ctx.Err() == nil:
			w.WriteHeader(http.StatusNoContent) // timeout: no change
		default:
			// client gone or server closing; nothing to say
		}
		return
	}
	// Iterator ended without yielding a context error (raced shutdown).
	if pctx.Err() != nil && ctx.Err() == nil {
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleWatchAll streams the whole map as SSE: one "snapshot" event
// (the full linearizable Snapshot), then "delta" events — created/
// changed values and deleted keys, JSON-encoded ([]byte values render
// as base64, for free). Conflation is inherited from WatchAll: a slow
// stream coalesces to one cumulative delta per drain.
func (s *Server) handleWatchAll(w http.ResponseWriter, r *http.Request) {
	s.st.reqWatchAll.Add(1)
	rd, release, ok := s.acquireWatch(w)
	if !ok {
		return
	}
	defer release()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ctx, cancel := s.watchCtx(r)
	defer cancel()
	h := w.Header()
	h["Content-Type"] = contentTypeSSE
	h["Cache-Control"] = noCache
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	scratch := make([]byte, 0, 1024)
	for d, err := range rd.WatchAll(ctx) {
		switch {
		case err == nil:
			payload, jerr := json.Marshal(d)
			if jerr != nil {
				return
			}
			name := "delta"
			if d.Full {
				name = "snapshot"
			}
			scratch = appendEvent(scratch[:0], name, payload, false)
		case errors.Is(err, regmap.ErrShardCorrupt):
			s.st.degraded.Add(1)
			scratch = appendEvent(scratch[:0], "degraded", nil, false)
		default:
			return
		}
		faultSlowClient.Hit()
		if _, werr := w.Write(scratch); werr != nil {
			return
		}
		// Counted before the flush, as in handleWatchKey.
		s.st.watchEvents.Add(1)
		s.st.bytesOut.Add(uint64(len(scratch)))
		fl.Flush()
		// Terminal span stage, as in handleWatchKey.
		rd.TraceRing().Record(trace.StageFlush, 0, rd.LastWake(), uint64(len(scratch)))
	}
}

// appendEvent appends one SSE frame ("event: <name>", data lines, a
// blank terminator) to dst, reusing its backing array — the per-stream
// scratch buffer makes steady-state event writes allocation-free. Raw
// payloads are split on newlines into multiple data lines (SSE frames
// are line-delimited); b64 emits a single base64 data line instead,
// for binary-safe transport.
func appendEvent(dst []byte, name string, data []byte, b64 bool) []byte {
	dst = append(dst, "event: "...)
	dst = append(dst, name...)
	dst = append(dst, '\n')
	switch {
	case b64:
		dst = append(dst, "data: "...)
		n := base64.StdEncoding.EncodedLen(len(data))
		off := len(dst)
		dst = append(dst, make([]byte, n)...)
		base64.StdEncoding.Encode(dst[off:], data)
		dst = append(dst, '\n')
	case len(data) == 0:
		dst = append(dst, "data: \n"...)
	default:
		rest := data
		for {
			i := bytes.IndexByte(rest, '\n')
			line := rest
			if i >= 0 {
				line = rest[:i]
				rest = rest[i+1:]
			}
			dst = append(dst, "data: "...)
			dst = append(dst, line...)
			dst = append(dst, '\n')
			if i < 0 {
				break
			}
		}
	}
	return append(dst, '\n')
}

// ---- introspection handlers ----

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	s.st.reqOther.Add(1)
	c, err := s.acquire(r.Context())
	if err != nil {
		s.shedRead(w)
		return
	}
	keys, kerr := c.rd.Keys()
	s.release(c)
	if kerr != nil {
		s.writeErr(w, kerr)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(keys)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.st.reqOther.Add(1)
	s.writeErr(w, s.Compact())
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.st.reqStatz.Add(1)
	sn := s.StatsTree()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, sn.JSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	sn.WriteText(w)
}

// handleMetricz renders the whole stats tree — serve counters, the
// map's tree (including the trace node's per-stage histograms on a
// traced map), and the process node — in the Prometheus text
// exposition format, stdlib only. The walk is read-only: scraping
// costs the registers nothing beyond the loads the tree always costs.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	s.st.reqStatz.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, "arcreg", s.StatsTree())
}

// handleTrace dumps the flight recorder: reconstructed publish→deliver
// spans with per-stage latency summaries, as JSON by default or a
// human-readable timeline with ?format=text; ?spans=N bounds the dump
// to the newest N spans (default 32, 0 = all). Snapshotting the rings
// is safe under live traffic (seqlock-validated walks; see
// internal/trace) — 404 when the map was built without tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.st.reqOther.Add(1)
	tr := s.m.Tracer()
	if tr == nil {
		http.Error(w, "tracing disabled (map built without Trace)", http.StatusNotFound)
		return
	}
	maxSpans := 32
	if v := r.URL.Query().Get("spans"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			maxSpans = n
		}
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tr.WriteText(w, maxSpans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteJSON(w, maxSpans)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	s.st.reqOther.Add(1)
	io.WriteString(w, `arcserve: a wait-free-read register map over HTTP

  GET    /k/{key}       value bytes
  PUT    /k/{key}       set from request body
  DELETE /k/{key}       delete
  GET    /watch/{key}   SSE value stream (?b64=1 binary-safe; ?poll=5s long-poll)
  GET    /watch         SSE whole-map snapshot-delta stream (JSON)
  GET    /keys          JSON key list
  POST   /compact       compact all shards
  GET    /statz         stats tree (?format=json)
  GET    /metricz       Prometheus text exposition
  GET    /debug/trace   flight-recorder span dump (?format=text, ?spans=N)
  GET    /debug/vars    expvar
`)
}

// ---- stats ----

// Stats returns the server-side node of the observability tree. The
// register-read totals (read_ops/read_fastpath/read_rmw) are folded in
// at pool-release time, so under live traffic they trail the request
// counters by at most the in-flight requests.
func (s *Server) Stats() obs.Snapshot {
	sn := obs.Snapshot{Name: "serve"}
	sn.Put("conns_accepted", s.st.connsAccepted.Load())
	sn.Put("conns_active", clamp(s.st.connsActive.Load()))
	sn.Put("req_get", s.st.reqGet.Load())
	sn.Put("req_put", s.st.reqPut.Load())
	sn.Put("req_delete", s.st.reqDelete.Load())
	sn.Put("req_watch", s.st.reqWatch.Load())
	sn.Put("req_watch_all", s.st.reqWatchAll.Load())
	sn.Put("req_statz", s.st.reqStatz.Load())
	sn.Put("req_other", s.st.reqOther.Load())
	sn.Put("get_hits", s.st.getHits.Load())
	sn.Put("get_misses", s.st.getMisses.Load())
	sn.Put("degraded", s.st.degraded.Load())
	sn.Put("read_ops", s.st.readOps.Load())
	sn.Put("read_fastpath", s.st.readFastPath.Load())
	sn.Put("read_rmw", s.st.readRMW.Load())
	sn.Put("watch_streams", clamp(s.st.watchStreams.Load()))
	sn.Put("watch_events", s.st.watchEvents.Load())
	sn.Put("longpolls", s.st.longPolls.Load())
	sn.Put("shed_writes", s.st.shedWrites.Load())
	sn.Put("shed_watch", s.st.shedWatch.Load())
	sn.Put("aborted", s.st.aborted.Load())
	sn.Put("bytes_out", s.st.bytesOut.Load())

	var depth, sets, deletes, dos, errs uint64
	for si := range s.queues {
		depth += uint64(len(s.queues[si]))
		sets += s.shards[si].sets.Load()
		deletes += s.shards[si].deletes.Load()
		dos += s.shards[si].dos.Load()
		errs += s.shards[si].errs.Load()
	}
	sn.Put("queue_depth", depth)
	sn.Put("queue_cap", uint64(cap(s.queues[0])*len(s.queues)))
	sn.Put("writes_applied", sets)
	sn.Put("deletes_applied", deletes)
	sn.Put("ops_applied", dos)
	sn.Put("write_errors", errs)

	// The watcher backpressure ledgers live on the map's tracker; the
	// conflation total is the serving layer's headline number (slow
	// clients skip, they do not buffer), so surface it here too.
	tsn := s.m.WatchTracker().Stats()
	if v, ok := tsn.Get("conflated"); ok {
		sn.Put("watch_conflated", v)
	}
	if v, ok := tsn.Get("lag_max"); ok {
		sn.Put("watch_lag_max", v)
	}
	return sn
}

// StatsTree returns the combined tree served on /statz and /metricz:
// the serve node, the map's own tree, and the process node (uptime, Go
// version, GOMAXPROCS, build revision) as siblings under one root.
func (s *Server) StatsTree() obs.Snapshot {
	return obs.Snapshot{
		Name:     "arcserve",
		Children: []obs.Snapshot{s.Stats(), s.m.Stats(), obs.ProcessInfo(s.start)},
	}
}

// DebugMux returns the admin-plane mux for a separate debug listener
// (cmd/arcserve -debug-addr): net/http/pprof under /debug/pprof/,
// expvar under /debug/vars, the flight-recorder dump under
// /debug/trace, and /statz + /metricz — the introspection surface
// without the data plane. Everything here is also reachable through
// ServeHTTP except pprof, which stays off the data plane deliberately
// (profiles are privileged and can be heavy).
func (s *Server) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/metricz", s.handleMetricz)
	return mux
}

func clamp(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}
