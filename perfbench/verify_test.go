package main

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
)

// Each verifier must reject a planted torn value and a planted
// out-of-order value, and accept the value it was built from.
func TestVerifiersRejectTornAndOutOfOrderValues(t *testing.T) {
	t.Run("feed", func(t *testing.T) {
		v := make([]byte, feedValueSize)
		stampFeed(v, 7, 123)
		if ver, due, err := checkFeed(v, 7); err != nil || ver != 7 || due != 123 {
			t.Fatalf("checkFeed(good) = %d, %d, %v; want 7, 123, nil", ver, due, err)
		}
		torn := slices.Clone(v)
		binary.LittleEndian.PutUint64(torn[len(torn)-8:], 6)
		if _, _, err := checkFeed(torn, 0); err == nil {
			t.Error("torn view accepted")
		}
		if _, _, err := checkFeed(v, 8); err == nil {
			t.Error("new-old inversion accepted")
		}
		if _, _, err := checkFeed(v[:feedValueSize/2], 0); err == nil {
			t.Error("short view accepted")
		}
	})
	t.Run("catalog", func(t *testing.T) {
		it := Item{Key: "sku-1", Version: 3, Stamp: -5, Price: 42, Note: "note"}
		b, err := it.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Item
		if err := got.UnmarshalBinary(b); err != nil || got != it {
			t.Fatalf("round trip = %+v, %v; want %+v", got, err, it)
		}
		if err := got.UnmarshalBinary(b[:len(b)-1]); err == nil {
			t.Error("truncated item decoded")
		}
		if err := checkItem("sku-1", it, 3); err != nil {
			t.Errorf("good item rejected: %v", err)
		}
		if err := checkItem("sku-2", it, 0); err == nil {
			t.Error("another key's item accepted")
		}
		if err := checkItem("sku-1", it, 4); err == nil {
			t.Error("version going backwards accepted")
		}
	})
	t.Run("edge", func(t *testing.T) {
		v := make([]byte, edgeValueSize)
		edgeValue(v, 5, 0xabc, 99, strings.Repeat("x", edgeValueSize))
		if ver, sent, err := checkEdge(v, 0xabc, 5); err != nil || ver != 5 || sent != 99 {
			t.Fatalf("checkEdge(good) = %d, %d, %v; want 5, 99, nil", ver, sent, err)
		}
		torn := slices.Clone(v)
		putHex(torn[edgeTailAt+2:], 4)
		if _, _, err := checkEdge(torn, 0xabc, 0); err == nil {
			t.Error("torn value accepted")
		}
		if _, _, err := checkEdge(v, 0xabc, 6); err == nil {
			t.Error("version going backwards accepted")
		}
		if _, _, err := checkEdge(v, 0xabd, 0); err == nil {
			t.Error("another key's value accepted")
		}
	})
}

func TestQuantileInterpolatesWithinTies(t *testing.T) {
	d := dist{10, 10, 10, 10}
	if got := d.quantile(0.5); got != 10 {
		t.Errorf("median of ties = %v, want 10", got)
	}
	// Moving one sample up by a tick moves the median, though the
	// middle rank still reads 10.
	if got := (dist{10, 10, 10, 11}).quantile(0.5); got <= 10 || got >= 10.5 {
		t.Errorf("median = %v, want just above 10 once a quarter of the mass moved up", got)
	}
	if pct, _ := make(dist, 100).tail(); pct != 90 {
		t.Errorf("tail of 100 samples at p%v, want p90 (ten samples beyond)", pct)
	}
}
