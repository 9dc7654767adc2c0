package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arcreg"
)

const (
	edgeKeys   = 16000
	edgeShards = 8
	edgeSetups = 3
	// edgePool sizes both the pooled GET readers and the watch streams:
	// one per client connection.
	edgePool   = 2
	edgeOpsLen = 1 << 16
	spanHeader = "X-Span"
)

// httpConn is one keep-alive HTTP/1.1 client connection. Requests are
// written and responses parsed by hand, without allocating, so the
// client adds little to the round trips it times and starts no
// goroutines of its own.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func dial(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10), req: make([]byte, 0, 512), body: make([]byte, 8<<10)}, nil
}

// do sends one request for /k/key and returns the status and body. The
// body aliases the connection's buffer until the next call. A non-zero
// span id travels in the X-Span header so the server-side span of the
// request can name its client span as parent.
func (hc *httpConn) do(method, key string, val []byte, span uint64) (int, []byte, error) {
	b := append(hc.req[:0], method...)
	b = append(b, " /k/"...)
	b = append(b, key...)
	b = append(b, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if span != 0 {
		b = append(b, spanHeader+": "...)
		b = strconv.AppendUint(b, span, 16)
		b = append(b, "\r\n"...)
	}
	if val != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(val)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, val...)
	hc.req = b
	if _, err := hc.c.Write(b); err != nil {
		return 0, nil, err
	}
	return hc.readResponse()
}

// readResponse reads one response that carries a Content-Length or has
// no body (204), which is every response the handler gives to /k/.
func (hc *httpConn) readResponse() (int, []byte, error) {
	line, err := hc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	status, ok := parseDec(line[min(len(line), 9):min(len(line), 12)])
	if !ok || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		if line, err = hc.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, found := bytes.CutPrefix(line, []byte("Content-Length: ")); found {
			if length, ok = parseDec(bytes.TrimRight(v, "\r\n")); !ok {
				return 0, nil, fmt.Errorf("malformed header %q", line)
			}
		}
	}
	switch {
	case length < 0 && status == http.StatusNoContent:
		length = 0
	case length < 0:
		return 0, nil, fmt.Errorf("status %d response without Content-Length", status)
	case length > len(hc.body):
		return 0, nil, errors.New("response body exceeds the client buffer")
	}
	if _, err := io.ReadFull(hc.br, hc.body[:length]); err != nil {
		return 0, nil, err
	}
	return status, hc.body[:length], nil
}

// parseDec parses a non-empty run of decimal digits.
func parseDec(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, len(b) > 0
}

// sseStream is the second client connection: an SSE watch of one key.
type sseStream struct {
	hc    *httpConn
	lines *bufio.Reader
	data  []byte
}

func openWatch(addr, key string) (*sseStream, error) {
	hc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	if _, err := hc.c.Write([]byte("GET /watch/" + key + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")); err != nil {
		hc.c.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(hc.br, nil)
	if err != nil {
		hc.c.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		hc.c.Close()
		return nil, fmt.Errorf("watch %s: status %d", key, resp.StatusCode)
	}
	return &sseStream{hc: hc, lines: bufio.NewReader(resp.Body)}, nil
}

// next returns the data of the stream's next "value" event; it is valid
// until the next call.
func (s *sseStream) next() ([]byte, error) {
	event := ""
	for {
		line, err := s.lines.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		line = line[:len(line)-1]
		switch {
		case len(line) == 0 && event == "value":
			return s.data, nil
		case len(line) == 0:
			return nil, fmt.Errorf("unexpected SSE event %q", event)
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			s.data = append(s.data[:0], line[len("data: "):]...)
		}
	}
}

// tracedHandler wraps HTTPHandler.ServeHTTP in a span whose parent is
// the client span named by the request's X-Span header.
type tracedHandler struct {
	next http.Handler
	mu   sync.Mutex
	log  *spanLog
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 16, 64)
	if err != nil {
		t.next.ServeHTTP(w, r)
		return
	}
	kind := spanServeGet
	if r.Method == http.MethodPut {
		kind = spanServePut
	}
	t0 := now()
	t.next.ServeHTTP(w, r)
	t1 := now()
	t.mu.Lock()
	t.log.add(t.log.newID(), parent, kind, t0, t1)
	t.mu.Unlock()
}

// edgeData is the edge's generated input: keys, their hashes, the
// filler of their values, the hot key and the operation sequence.
type edgeData struct {
	keys []string
	kh   []uint32
	fill string
	hot  int32
	ops  []edgeOp
}

type edgeOp struct {
	key int32
	put bool
}

func newEdgeData(seed int64, n int) *edgeData {
	rng := rand.New(rand.NewSource(seed))
	d := &edgeData{keys: keySet(rng, "item-", n)}
	d.kh = make([]uint32, n)
	for i, k := range d.keys {
		d.kh[i] = keyHash(k)
	}
	d.fill = string(printable(rng, 4096))
	var seq []int32
	seq, d.hot = zipfSeq(rng, n, edgeOpsLen)
	d.ops = make([]edgeOp, edgeOpsLen)
	puts := 0
	for j, k := range seq {
		op := edgeOp{key: k, put: j%10 == 9}
		if op.put {
			if puts++; puts%4 == 0 {
				op.key = d.hot
			}
		}
		d.ops[j] = op
	}
	return d
}

// value fills dst with version ver of key i, stamped as sent at sent.
func (d *edgeData) value(dst []byte, i int32, ver uint64, sent int64) {
	off := int(d.kh[i]) % (len(d.fill) - edgeValueSize)
	edgeValue(dst, ver, d.kh[i], sent, d.fill[off:off+edgeValueSize])
}

type edgeRig struct {
	m      *arcreg.Map
	h      *arcreg.HTTPHandler
	srv    *http.Server
	served chan struct{}
	th     *tracedHandler
	client *httpConn
	watch  *sseStream
}

func (r *edgeRig) close() {
	if r.client != nil {
		r.client.c.Close()
	}
	if r.watch != nil {
		r.watch.hc.c.Close()
	}
	r.srv.Close()
	<-r.served
	r.h.Close()
}

// buildEdge is the edge's set-up: map, handler, listener, the preload
// of every key through HTTPHandler.Set, both connections, and two GETs
// of every key so that each pooled reader handle has opened every key
// before the measurement window. With addKey set, each key's first Set
// is timed into it; traced also turns on the map's flight recorder and
// wraps the handler in server-side spans.
func buildEdge(d *edgeData, addKey *spanLog, traced bool, spanCap int) (rig *edgeRig, err error) {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{
		Shards:        edgeShards,
		MaxReaders:    2 * edgePool,
		MaxValueSize:  4096,
		DynamicValues: true,
		Trace:         traced,
	})
	if err != nil {
		return nil, err
	}
	h, err := arcreg.NewHTTPHandler(m, arcreg.HTTPOptions{Readers: edgePool, WatchStreams: edgePool})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	rig = &edgeRig{m: m, h: h, served: make(chan struct{})}
	var handler http.Handler = h
	if traced {
		rig.th = &tracedHandler{next: h, log: newSpanLog(4, spanCap)}
		handler = rig.th
	}
	rig.srv = &http.Server{Handler: handler, ConnState: h.ConnState, ErrorLog: log.New(io.Discard, "", 0)}
	go func() {
		defer close(rig.served)
		rig.srv.Serve(ln)
	}()
	defer func() {
		if err != nil {
			rig.close()
		}
	}()

	val := make([]byte, edgeValueSize)
	for i, k := range d.keys {
		d.value(val, int32(i), 1, 0)
		var t0 int64
		if addKey != nil {
			t0 = now()
		}
		if err := h.Set(k, val); err != nil {
			return nil, err
		}
		if addKey != nil {
			addKey.add(addKey.newID(), 0, spanAddKey, t0, now())
		}
	}
	addr := ln.Addr().String()
	if rig.client, err = dial(addr); err != nil {
		return nil, err
	}
	if rig.watch, err = openWatch(addr, d.keys[d.hot]); err != nil {
		return nil, err
	}
	first, err := rig.watch.next()
	if err != nil {
		return nil, fmt.Errorf("first watch frame: %w", err)
	}
	if _, _, err := checkEdge(first, d.kh[d.hot], 1); err != nil {
		return nil, err
	}
	// The pool hands out its readers in turn, so two back-to-back GETs
	// of a key open it on both.
	for i, k := range d.keys {
		for range edgePool {
			st, body, err := rig.client.do(http.MethodGet, k, nil, 0)
			if err != nil {
				return nil, err
			}
			if st != http.StatusOK {
				return nil, fmt.Errorf("warm-up GET %s: status %d", k, st)
			}
			if _, _, err := checkEdge(body, d.kh[i], 1); err != nil {
				return nil, err
			}
		}
	}
	return rig, nil
}

// findNode returns the first node named name in the stats tree.
func findNode(sn *arcreg.Stats, name string) *arcreg.Stats {
	if sn.Name == name {
		return sn
	}
	for i := range sn.Children {
		if n := findNode(&sn.Children[i], name); n != nil {
			return n
		}
	}
	return nil
}

func counter(sn *arcreg.Stats, name string) uint64 {
	if sn == nil {
		return 0
	}
	v, _ := sn.Get(name)
	return v
}

// stageP50us is the exact median time from publication to stage st
// over the flight recorder's retained events, in microseconds.
func stageP50us(tr *arcreg.Tracer, st arcreg.TraceStage) float64 {
	var d dist
	for _, ev := range tr.Events() {
		if ev.Stage == st && ev.Span != 0 && ev.TS >= ev.Span {
			d = append(d, ev.TS-ev.Span)
		}
	}
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	return d.quantile(0.5) / 1e3
}

func runEdge(p params, traced bool) (*outcome, error) {
	// Set-up and load run on one P. The closed loop keeps one request in
	// flight, so client and server never run at once; with a second P
	// each hand-off parked one thread and woke the other (1.2 voluntary
	// context switches per operation, 0.01 on one P), and how long a
	// shared host takes to wake a halted vCPU then set the throughput.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	o := newOutcome()
	nkeys, setups := edgeKeys, edgeSetups
	if p.short {
		nkeys, setups = 1000, 1
	}
	d := newEdgeData(p.seed, nkeys)

	var (
		rig    *edgeRig
		addKey *spanLog
	)
	setupS, heapAdded, err := setUp(setups, func() {
		if rig != nil {
			rig.close()
			rig = nil
		}
		if traced {
			addKey = newSpanLog(3, nkeys)
		}
	}, func() (err error) {
		rig, err = buildEdge(d, addKey, traced, capFor(20e3, p.window))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer rig.close()
	o.e2e["setup_s"] = setupS
	o.layer["regmap.heap_bytes_per_key"] = float64(heapAdded) / float64(nkeys)

	deadline := time.Now().Add(p.window + time.Minute)
	rig.client.c.SetDeadline(deadline)
	rig.watch.hc.c.SetDeadline(deadline)
	var clog *spanLog
	if traced {
		clog = newSpanLog(1, capFor(20e3, p.window))
	}
	serve0 := rig.h.Stats()
	tree0 := rig.h.StatsTree()
	watch0 := findNode(&tree0, "watchers")
	rt0 := readRuntime()

	start := now() + int64(time.Millisecond)
	end := start + int64(p.window)

	observe := newSamples(capFor(2e3, p.window))
	var (
		wg       sync.WaitGroup
		stopping atomic.Bool
		sseErr   error
		sseAudit audit
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		newest := uint64(1)
		for {
			data, err := rig.watch.next()
			if err != nil {
				if !stopping.Load() {
					sseErr = err
				}
				return
			}
			ver, sent, err := checkEdge(data, d.kh[d.hot], newest)
			if err != nil {
				sseAudit.fail(fmt.Errorf("SSE: %w", err))
				continue
			}
			newest = ver
			if sent != 0 {
				observe.add(now() - sent)
			}
		}
	}()

	getLat := newSamples(capFor(20e3, p.window))
	putLat := newSamples(capFor(3e3, p.window))
	getCuts := newSlicer(start, p.window, throughputCuts)
	putCuts := newSlicer(start, p.window, throughputCuts)
	acked := make([]uint64, nkeys) // newest version a PUT was acknowledged for
	seen := make([]uint64, nkeys)  // newest version a GET returned
	next := make([]uint64, nkeys)  // version of the key's next PUT
	for i := range nkeys {
		acked[i], seen[i], next[i] = 1, 1, 2
	}
	val := make([]byte, edgeValueSize)
	var gets, puts, getFails, putFails uint64
	var loadErr error
	pos := 0
	for now() < start {
	}
	for t := start; t < end; t = now() {
		op := d.ops[pos]
		pos = (pos + 1) % len(d.ops)
		i := op.key
		id := clog.newID()
		if op.put {
			ver := next[i]
			next[i]++
			sent := now()
			d.value(val, i, ver, sent)
			st, _, err := rig.client.do(http.MethodPut, d.keys[i], val, id)
			done := now()
			clog.add(id, 0, spanEdgePut, sent, done)
			puts++
			if err != nil {
				loadErr = err
				break
			}
			if st != http.StatusNoContent {
				putFails++
				continue
			}
			acked[i] = ver
			putLat.add(done - sent)
			putCuts.add(done, 1)
			continue
		}
		t0 := now()
		st, body, err := rig.client.do(http.MethodGet, d.keys[i], nil, id)
		done := now()
		clog.add(id, 0, spanEdgeGet, t0, done)
		gets++
		if err != nil {
			loadErr = err
			break
		}
		if st != http.StatusOK {
			getFails++
			continue
		}
		ver, _, err := checkEdge(body, d.kh[i], max(acked[i], seen[i]))
		if err != nil {
			o.audit.fail(err)
			continue
		}
		seen[i] = ver
		getLat.add(done - t0)
		getCuts.add(done, 1)
	}
	stopping.Store(true)
	rig.watch.hc.c.Close()
	wg.Wait()
	if loadErr != nil {
		return nil, fmt.Errorf("client connection: %w", loadErr)
	}
	if sseErr != nil {
		return nil, fmt.Errorf("watch stream: %w", sseErr)
	}
	o.audit.merge(&sseAudit)

	rt1 := readRuntime()
	serve1 := rig.h.Stats()
	tree1 := rig.h.StatsTree()
	watch1 := findNode(&tree1, "watchers")
	o.attempted, o.failed = gets+puts, getFails+putFails

	gd, pd, od := getLat.dist(), putLat.dist(), observe.dist()
	o.e2e["reads_per_s"] = getCuts.rate()
	o.e2e["writes_per_s"] = putCuts.rate()
	o.e2e["read_p50_us"] = gd.quantile(0.5) / 1e3
	o.e2e["write_p50_us"] = pd.quantile(0.5) / 1e3
	o.e2e["observe_p50_us"] = od.quantile(0.5) / 1e3
	o.latency("read", gd)
	o.latency("write", pd)
	o.latency("observe", od)

	o.layer["serve.read_fastpath_share"] = share(
		counter(&serve1, "read_fastpath")-counter(&serve0, "read_fastpath"),
		counter(&serve1, "read_ops")-counter(&serve0, "read_ops"))
	for _, c := range []string{"delivered", "conflated", "wakeups"} {
		o.layer["notify."+c] = float64(counter(watch1, c) - counter(watch0, c))
	}
	runtimeLayer(o.layer, rt0, rt1, o.attempted)
	if traced {
		rig.th.mu.Lock()
		handlerLog := rig.th.log
		rig.th.log = nil
		rig.th.mu.Unlock()
		st := summarize(clog, handlerLog)
		o.layer["serve.get_handler_us"] = st.meanNs(spanServeGet) / 1e3
		o.layer["serve.get_outside_us"] = st.meanSelfNs(spanEdgeGet) / 1e3
		o.layer["serve.put_handler_us"] = st.meanNs(spanServePut) / 1e3
		o.layer["trace.cascade_p50_us"] = stageP50us(rig.m.Tracer(), arcreg.StageCascade)
		o.layer["trace.flush_p50_us"] = stageP50us(rig.m.Tracer(), arcreg.StageFlush)
		first, last := firstLastMeans(addKey, spanAddKey, min(addKeyWindow, nkeys/2))
		o.layer["regmap.addkey_first_us"] = first / 1e3
		o.layer["regmap.addkey_last_us"] = last / 1e3
		path := filepath.Join(p.spansDir, fmt.Sprintf("edge-seed%d.tsv", p.seed))
		if err := writeSpans(path, addKey, clog, handlerLog); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	// The served map must still be reachable when the heap is read; the
	// benchmark's inputs, samples and spans must not be.
	d.ops, acked, seen, next = nil, nil, nil, nil
	getLat, putLat, observe, clog, addKey = nil, nil, nil, nil, nil
	o.e2e["heap_mb"] = float64(liveHeapBytes()) / (1 << 20)
	runtime.KeepAlive(rig)
	return o, nil
}
