package serve

// End-to-end flight-recorder coverage at the serving edge: one logical
// span must be reconstructible from publish to SSE flush across a real
// loopback connection, and the trace surfaces (/debug/trace, /metricz)
// must render it.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"arcreg/internal/regmap"
	"arcreg/internal/trace"
)

// TestServeTraceEndToEndSpan drives a publish through a traced map into
// a live SSE stream and asserts the recorder threaded one span through
// every stage: publish → tree cascade → watcher wake → conflation
// decision → SSE frame flushed, with stamps and timestamps monotone
// along the causal chain.
func TestServeTraceEndToEndSpan(t *testing.T) {
	s, ts := newTestServer(t, regmap.Config{Trace: true}, Config{})
	c := ts.Client()
	m := s.m

	if err := s.Set("traced", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	br, closeBody := openSSE(t, ctx, c, ts.URL+"/watch/traced")
	defer closeBody()
	if ev, err := readSSE(br); err != nil || ev.name != "value" {
		t.Fatalf("initial event = %v (%v)", ev, err)
	}

	// Publish until one span carries all five stages: each Set must
	// wake the watcher through the fan tree and flush a frame back over
	// the wire, but only a Set that finds the watcher parked records a
	// wake — under CPU load one can land while the watcher is still
	// flushing the previous frame, and that span has no StageWake.
	want := uint32(1<<trace.StagePublish | 1<<trace.StageCascade |
		1<<trace.StageWake | 1<<trace.StageConflate | 1<<trace.StageFlush)
	var full trace.Span
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; full.Stamp == 0 && time.Now().Before(deadline); i++ {
		if err := s.Set("traced", []byte(fmt.Sprintf("v%d", i+2))); err != nil {
			t.Fatal(err)
		}
		if ev, err := readSSE(br); err != nil || ev.name != "value" {
			t.Fatalf("delivered event %d = %v (%v)", i, ev, err)
		}
		// The connection goroutine records the flush after writing the
		// frame, so the client can observe the frame first — poll
		// briefly before publishing again.
		for poll := 0; poll < 20 && full.Stamp == 0; poll++ {
			for _, sp := range m.Tracer().Spans(0) {
				if sp.Stages()&want == want {
					full = sp
					break
				}
			}
			if full.Stamp == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if full.Stamp == 0 {
		var got []string
		for _, sp := range m.Tracer().Spans(0) {
			var names []string
			for _, ev := range sp.Events {
				names = append(names, ev.Stage.String())
			}
			got = append(got, strings.Join(names, ","))
		}
		t.Fatalf("no span reached all five stages; spans seen: %v", got)
	}

	// Monotonic stamps along the causal chain: every event's TS is at
	// or after the origin publication stamp, and the stages appear in
	// pipeline order.
	order := []trace.Stage{trace.StagePublish, trace.StageCascade, trace.StageWake, trace.StageConflate, trace.StageFlush}
	var prev trace.SpanEvent
	for i, st := range order {
		ev, ok := full.Stage(st)
		if !ok {
			t.Fatalf("span %d missing stage %s", full.Stamp, st)
		}
		if ev.Span != full.Stamp {
			t.Errorf("stage %s carries stamp %d, want %d", st, ev.Span, full.Stamp)
		}
		if ev.TS < full.Stamp {
			t.Errorf("stage %s at TS %d precedes its origin stamp %d", st, ev.TS, full.Stamp)
		}
		if i > 0 && ev.TS < prev.TS {
			t.Errorf("stage %s (TS %d) precedes %s (TS %d)", st, ev.TS, prev.Stage, prev.TS)
		}
		prev = ev
	}

	// The wire surfaces render it: /debug/trace JSON parses and holds
	// spans, the text timeline names stages, and /metricz exposes the
	// trace node as Prometheus samples.
	resp, body := doReq(t, c, "GET", ts.URL+"/debug/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", resp.StatusCode)
	}
	var dump struct {
		Spans []struct {
			Stamp  int64
			Events []struct {
				Ring  string
				Stage string
			}
		}
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("/debug/trace JSON: %v (%.200q)", err, body)
	}
	if len(dump.Spans) == 0 {
		t.Fatal("/debug/trace returned no spans")
	}
	resp, body = doReq(t, c, "GET", ts.URL+"/debug/trace?format=text&spans=8", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "publish") {
		t.Fatalf("/debug/trace text: status %d body %.200q", resp.StatusCode, body)
	}
	resp, body = doReq(t, c, "GET", ts.URL+"/metricz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricz: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "arcreg_map_trace_") {
		t.Fatalf("/metricz missing trace samples: %.300q", body)
	}
}

// TestServeTraceDisabled pins the untraced default: the map records
// nothing, and /debug/trace says so instead of serving empty dumps.
func TestServeTraceDisabled(t *testing.T) {
	s, ts := newTestServer(t, regmap.Config{}, Config{})
	c := ts.Client()
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	resp, _ := doReq(t, c, "GET", ts.URL+"/debug/trace", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace on untraced map: status %d, want 404", resp.StatusCode)
	}
	if tr := s.m.Tracer(); tr != nil {
		t.Fatal("untraced map returned a live Tracer")
	}
}
