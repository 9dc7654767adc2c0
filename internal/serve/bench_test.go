package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"arcreg/internal/regmap"
)

// BenchmarkServeGet is the in-process serve-handler rung: Server.ServeHTTP
// on a prebuilt GET of an unchanged key, no socket. Before timing, the
// single pooled handle reads every key once, as a long-running server's
// handles have, so the sub-benchmarks show whether the per-request cost
// (the Get plus the release-time stats fold-in) depends on how many keys
// the handle has touched.
func BenchmarkServeGet(b *testing.B) {
	for _, keys := range []int{16, 16384} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			m, err := regmap.New(regmap.Config{Shards: 8, MaxReaders: 2, MaxValueSize: 64})
			if err != nil {
				b.Fatal(err)
			}
			key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
			val := make([]byte, 64)
			for i := 0; i < keys; i++ {
				if err := m.Set(key(i), val); err != nil {
					b.Fatal(err)
				}
			}
			s, err := New(Config{Map: m, Readers: 1, WatchStreams: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			c := <-s.pool
			for i := 0; i < keys; i++ {
				if _, err := c.rd.Get(key(i)); err != nil {
					b.Fatal(err)
				}
			}
			s.pool <- c

			req := httptest.NewRequest(http.MethodGet, "/k/"+key(0), nil)
			w := &nullRW{h: make(http.Header)}
			b.ReportAllocs()
			for b.Loop() {
				s.ServeHTTP(w, req)
			}
			if w.n != b.N*len(val) {
				b.Fatalf("wrote %d body bytes over %d GETs, want %d each", w.n, b.N, len(val))
			}
		})
	}
}
