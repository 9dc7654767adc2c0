// Web dashboard: the register map served over HTTP end to end. A fleet
// of services publishes health statuses into an arcreg.Map through the
// HTTP serving layer's per-shard writer queues; dashboard clients read
// them back over plain GETs (each request a wait-free register read
// behind a syscall) and tail the whole map live over the SSE
// snapshot-delta stream — the same Watch engine in-process watchers
// use, with latest-value conflation as the slow-browser story.
//
// The demo runs a real loopback HTTP server, drives it with real
// clients, and ends with the server's own /statz tree: request counts,
// the reader pool's fold-ins (read_rmw stays 0 — GETs never contend),
// and the watcher ledgers.
//
//	go run ./examples/webdash
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"arcreg"
)

// Status is one service's health record — a multi-word value the
// register publishes atomically: no dashboard ever sees the load of one
// heartbeat with the timestamp of another.
type Status struct {
	Service string    `json:"service"`
	Healthy bool      `json:"healthy"`
	Load    float64   `json:"load"`
	Beat    int       `json:"beat"`
	Updated time.Time `json:"updated"`
}

func main() {
	store, err := arcreg.NewMap[Status](
		arcreg.WithShards(4),
		arcreg.WithReaders(16),
		arcreg.WithMaxValueSize(512),
	)
	if err != nil {
		log.Fatal(err)
	}
	// The HTTP handler owns the map's write side: every publication —
	// HTTP PUT or in-process Set — funnels through its per-shard writer
	// queues, preserving the one-writer-per-shard contract.
	// Pool handles and watch streams are counted against the map's
	// reader budget (16 above): 8 pooled GET readers, 4 streams.
	h, err := arcreg.NewHTTPHandler(store, arcreg.HTTPOptions{
		Readers:      8,
		WatchStreams: 4,
		ExpvarName:   "webdash",
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: h, ConnState: h.ConnState}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("dashboard backend on %s\n\n", base)

	// The dashboard tail: one SSE stream over the whole map. The first
	// event is a linearizable snapshot, every later one a delta — the
	// browser reconstructs exact map states by applying them in order.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tailDone := make(chan struct{})
	go tail(ctx, base, tailDone)

	// The service fleet: heartbeats through the serving layer. Encoding
	// runs on the producer (JSON via the store's codec), publication is
	// one bounded queue hop onto the shard writer.
	services := []string{"api", "auth", "billing", "search", "ingest"}
	for beat := 1; beat <= 3; beat++ {
		for i, svc := range services {
			st := Status{
				Service: svc,
				Healthy: !(svc == "billing" && beat == 2), // one flapping service
				Load:    0.2*float64(i) + 0.1*float64(beat),
				Beat:    beat,
				Updated: time.Now().UTC(),
			}
			blob, err := store.Codec().Encode(st)
			if err != nil {
				log.Fatal(err)
			}
			if err := h.Set(svc, blob); err != nil {
				log.Fatal(err)
			}
		}
		time.Sleep(50 * time.Millisecond) // distinct dashboard frames
	}

	// A dashboard widget's point reads: GET /k/{key}, each a wait-free
	// register read behind a syscall, decoded client-side. Each pooled
	// reader handle pays one-time setup on its first read of the key;
	// every repeat is the two-atomic-load fast path, so past one warm
	// lap of the pool the RMW counter stops moving.
	var billing Status
	for i := 0; i < 32; i++ {
		resp, err := http.Get(base + "/k/billing")
		if err != nil {
			log.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&billing); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	fmt.Printf("point read: billing healthy=%v load=%.2f beat=%d\n\n", billing.Healthy, billing.Load, billing.Beat)

	time.Sleep(100 * time.Millisecond) // let the tail drain the last delta
	cancel()
	<-tailDone

	// The server observes itself: the serve node of /statz. Compare
	// read_rmw against read_ops: past each pooled handle's one-time
	// setup, the dashboard GETs added zero RMW and rode the fast path —
	// register reads that contended with nothing.
	fmt.Println("server /statz (serve node):")
	sn := h.Stats()
	for _, name := range []string{"req_get", "req_put", "get_hits", "read_ops", "read_fastpath", "read_rmw", "watch_events", "writes_applied"} {
		if v, ok := sn.Get(name); ok {
			fmt.Printf("  %-14s %d\n", name, v)
		}
	}

	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	hs.Shutdown(sctx)
	h.Close()
}

// tail follows GET /watch — the SSE snapshot-delta stream — and prints
// each frame the way a dashboard would apply it.
func tail(ctx context.Context, base string, done chan<- struct{}) {
	defer close(done)
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/watch", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		name, data, err := readEvent(br)
		if err != nil {
			return // stream canceled
		}
		// Delta values are raw register bytes (base64 in the JSON
		// framing); here each one is a codec-encoded Status.
		var d struct {
			Values  map[string][]byte `json:"values"`
			Deleted []string          `json:"deleted"`
			Full    bool              `json:"full"`
		}
		if err := json.Unmarshal([]byte(data), &d); err != nil {
			log.Fatal(err)
		}
		var svcs []string
		for k, raw := range d.Values {
			var st Status
			if err := json.Unmarshal(raw, &st); err != nil {
				log.Fatal(err)
			}
			svcs = append(svcs, fmt.Sprintf("%s(beat %d, healthy %v)", k, st.Beat, st.Healthy))
		}
		fmt.Printf("tail %-8s %d keys: %s\n", name, len(d.Values), strings.Join(svcs, " "))
	}
}

// readEvent parses one SSE frame into its event name and joined data.
func readEvent(br *bufio.Reader) (name, data string, err error) {
	var lines []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if name == "" && len(lines) == 0 {
				continue
			}
			return name, strings.Join(lines, "\n"), nil
		case strings.HasPrefix(line, "event: "):
			name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			lines = append(lines, line[len("data: "):])
		}
	}
}
