package arcreg_test

// The public HTTP facade, exercised end to end over real connections:
// NewHTTPHandler on a byte map and on a typed one, a PUT/GET
// round-trip, an in-process Set visible over the wire, and the serve
// stats node. The serving layer's
// deep coverage lives in internal/serve; this pins the exported
// surface.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"arcreg"
)

func TestHTTPHandlerFacade(t *testing.T) {
	m, err := arcreg.NewByteMap(arcreg.MapConfig{Shards: 2, MaxReaders: 8, MaxValueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := arcreg.NewHTTPHandler(m, arcreg.HTTPOptions{Readers: 2, WatchStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = h.ConnState
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	c := ts.Client()

	req, _ := http.NewRequest("PUT", ts.URL+"/k/greeting", bytes.NewReader([]byte("hello")))
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: status %d", resp.StatusCode)
	}
	resp, err = c.Get(ts.URL + "/k/greeting")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "hello" {
		t.Fatalf("GET: status %d body %q", resp.StatusCode, body)
	}

	// In-process writes route through the same shard writer queues.
	if err := h.Set("greeting", []byte("rebonjour")); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Get(ts.URL + "/k/greeting")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "rebonjour" {
		t.Fatalf("GET after Set: body %q", body)
	}
	if err := h.Delete("greeting"); err != nil {
		t.Fatal(err)
	}
	if resp, err = c.Get(ts.URL + "/k/greeting"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after Delete: status %d, want 404", resp.StatusCode)
	}
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}

	sn := h.Stats()
	if sn.Name != "serve" {
		t.Fatalf("stats node name %q, want serve", sn.Name)
	}
	if v, _ := sn.Get("req_get"); v < 3 {
		t.Fatalf("req_get = %d, want >= 3", v)
	}
	if v, _ := sn.Get("writes_applied"); v < 2 {
		t.Fatalf("writes_applied = %d, want >= 2", v)
	}
	var text strings.Builder
	sn.WriteText(&text)
	if !strings.Contains(text.String(), "req_get") {
		t.Fatalf("stats text missing req_get:\n%s", text.String())
	}
}

// TestHTTPHandlerTypedMap serves a typed map: the wire carries the
// stored encodings (JSON here), so a PUT body reaches typed readers
// decoded and a GET returns the encoding. A body the codec cannot
// decode is refused with 400 and never stored, so a typed Get and a
// typed Watch of the key carry on as if it had not been sent.
func TestHTTPHandlerTypedMap(t *testing.T) {
	m, err := arcreg.NewMap[int](arcreg.WithShards(2), arcreg.WithReaders(4))
	if err != nil {
		t.Fatal(err)
	}
	h, err := arcreg.NewHTTPHandler(m, arcreg.HTTPOptions{Readers: 1, WatchStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	put := func(body string) int {
		t.Helper()
		req, _ := http.NewRequest("PUT", ts.URL+"/k/n", strings.NewReader(body))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("42"); code != http.StatusNoContent {
		t.Fatalf("PUT: status %d", code)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if v, err := rd.Get("n"); err != nil || v != 42 {
		t.Fatalf("typed Get after PUT = %d, %v", v, err)
	}
	resp, err := ts.Client().Get(ts.URL + "/k/n")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "42" {
		t.Fatalf("GET body %q, want the JSON encoding 42", body)
	}

	wr, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	type event struct {
		v   int
		err error
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := make(chan event)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v, err := range wr.Watch(ctx, "n") {
			select {
			case events <- event{v, err}:
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		cancel()
		<-done
	}()
	// next returns the watch's next event that is not a repeat of 42.
	next := func() event {
		t.Helper()
		for {
			select {
			case e := <-events:
				if e.err == nil && e.v == 42 {
					continue
				}
				return e
			case <-time.After(5 * time.Second):
				t.Fatal("typed watch delivered nothing in 5s")
			}
		}
	}

	if code := put("not json"); code != http.StatusBadRequest {
		t.Fatalf("PUT of a malformed body: status %d, want 400", code)
	}
	if err := h.Set("n", []byte("{")); err == nil {
		t.Fatal("in-process Set of a malformed value succeeded")
	}
	if v, err := rd.Get("n"); err != nil || v != 42 {
		t.Fatalf("typed Get after refused writes = %d, %v; want 42", v, err)
	}
	if code := put("43"); code != http.StatusNoContent {
		t.Fatalf("PUT 43: status %d", code)
	}
	if e := next(); e.err != nil || e.v != 43 {
		t.Fatalf("typed watch after refused writes yielded (%d, %v), want 43", e.v, e.err)
	}
}
