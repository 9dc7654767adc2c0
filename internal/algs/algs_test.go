package algs

import (
	"context"
	"testing"

	"arcreg/internal/register"
)

// TestTable: every entry builds a working register whose Name matches
// the entry's (the ablations are ARC underneath), Lookup finds every
// name, and every register's Write advances its sequencer.
func TestTable(t *testing.T) {
	if len(Table) != Facade+2 {
		t.Fatalf("table has %d entries, want the facade's %d plus two ablations", len(Table), Facade)
	}
	for i, e := range Table {
		r, err := e.New(register.Config{MaxReaders: 2, MaxValueSize: 64}, false)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want := e.Name
		if i >= Facade {
			want = "arc"
		}
		if r.Name() != want {
			t.Errorf("entry %q builds a %q register", e.Name, r.Name())
		}
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
		if e.MaxReaders < 2 {
			t.Errorf("%s: reader bound %d", e.Name, e.MaxReaders)
		}
		seq := r.Notifier()
		if err := r.Writer().Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if got, err := seq.Wait(context.Background(), 0); err != nil || got != 1 {
			t.Errorf("%s: epoch after one Write = %d, %v; want 1", e.Name, got, err)
		}
	}
	if _, ok := Lookup("mutex"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if _, err := Table[1].New(register.Config{MaxReaders: 59}, false); err == nil {
		t.Error("rf accepted 59 readers")
	}
}

// TestDynamicBuffers: the ARC entry builds the dynamic-buffer variant,
// and a failed construction returns a nil interface.
func TestDynamicBuffers(t *testing.T) {
	r, err := Table[0].New(register.Config{MaxReaders: 1, MaxValueSize: 64}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Writer().Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	r, err = Table[0].New(register.Config{MaxReaders: 0}, true)
	if err == nil || r != nil {
		t.Fatalf("invalid config: got %v, %v; want nil, error", r, err)
	}
}
