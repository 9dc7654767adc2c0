package model

import (
	"strings"
	"testing"
)

// The faithful protocol must be safe over the FULL interleaving space of
// small configurations — the mechanized counterpart of the §4 proofs —
// with fixed buffers and with DynamicBuffers' buffer release at W3.
// The fixed-buffer counts are the ones the checker reported when it
// stored whole unpacked states: packing must neither merge nor split a
// state.
func TestFaithfulARCSafe(t *testing.T) {
	configs := []struct {
		cfg                 Config
		states, transitions int
	}{
		{Config{Readers: 1, MaxWrites: 3, MaxReadsPerReader: 3}, 8940, 15327},
		{Config{Readers: 2, MaxWrites: 2, MaxReadsPerReader: 2}, 192640, 436974},
		{Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 2}, 2156998, 5079672},
	}
	for _, c := range configs {
		checkSafe(t, c.cfg, c.states, c.transitions)
	}
}

// checkSafe checks cfg with fixed buffers, pinning the state and
// transition counts, and again with DynamicBuffers. A Trim
// configuration must also have trimmed.
func checkSafe(t *testing.T, cfg Config, states, transitions int) {
	t.Helper()
	for _, dynamic := range []bool{false, true} {
		cfg.DynamicBuffers = dynamic
		res, err := Check(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res.Violation != nil {
			t.Fatalf("R=%d W=%d RD=%d dynamic=%v: %v", cfg.Readers, cfg.MaxWrites, cfg.MaxReadsPerReader, dynamic, res.Violation)
		}
		if res.States < 100 {
			t.Fatalf("suspiciously small state space: %d states", res.States)
		}
		if dynamic && res.Drops == 0 {
			t.Fatalf("R=%d W=%d RD=%d: no W3 released a buffer, so use-after-drop was never armed",
				cfg.Readers, cfg.MaxWrites, cfg.MaxReadsPerReader)
		}
		if cfg.Trim && res.Trims == 0 {
			t.Fatalf("R=%d W=%d RD=%d dynamic=%v: no W1 trimmed a slot", cfg.Readers, cfg.MaxWrites, cfg.MaxReadsPerReader, dynamic)
		}
		if !dynamic && (res.States != states || res.Transitions != transitions) {
			t.Fatalf("R=%d W=%d RD=%d: %d states, %d transitions; want %d, %d",
				cfg.Readers, cfg.MaxWrites, cfg.MaxReadsPerReader, res.States, res.Transitions, states, transitions)
		}
		t.Logf("R=%d W=%d RD=%d nofast=%v dynamic=%v trim=%v: %d states, %d transitions, %d drops, %d trims — safe",
			cfg.Readers, cfg.MaxWrites, cfg.MaxReadsPerReader, cfg.DisableFastPath, dynamic, cfg.Trim,
			res.States, res.Transitions, res.Drops, res.Trims)
	}
}

// The published prefix's trim must be safe as well: W1 may take any set
// of free slots other than last_slot and the slot it chose out of the
// prefix, which covers every set the implementation's top-down trim
// takes. The trim-off counts above are unchanged; these pin the trim-on
// state spaces. The trim about triples a state space (R=2 W=3: 2.16M →
// 6.38M states), so the deep configuration below runs without it and
// W=4 is checked with one read per reader here. The deep configuration
// with the trim (34.9M states, 93.6M transitions, ~0.94 GB, 60 s) is
// safe too, but needs MaxStates raised and would more than double this
// package's run time.
func TestTrimSafe(t *testing.T) {
	configs := []struct {
		cfg                 Config
		states, transitions int
	}{
		{Config{Readers: 1, MaxWrites: 3, MaxReadsPerReader: 3, Trim: true}, 16214, 29835},
		{Config{Readers: 2, MaxWrites: 2, MaxReadsPerReader: 2, Trim: true}, 702412, 1691160},
		{Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 2, Trim: true}, 6380950, 16385325},
		{Config{Readers: 2, MaxWrites: 4, MaxReadsPerReader: 1, Trim: true}, 2379594, 6264201},
	}
	for _, c := range configs {
		checkSafe(t, c.cfg, c.states, c.transitions)
	}
}

// Deeper single configuration (the expensive one), gated behind -short.
func TestFaithfulARCSafeDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep model check skipped in -short")
	}
	checkSafe(t, Config{Readers: 2, MaxWrites: 4, MaxReadsPerReader: 2}, 14683264, 35557662)
}

// The ablated protocol (no fast path) must still be safe: the fast path
// is an optimization, not a correctness mechanism.
func TestNoFastPathSafe(t *testing.T) {
	checkSafe(t, Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 2, DisableFastPath: true}, 2569128, 6152322)
}

// A packed state is sized by the configuration: two words hold the deep
// configuration's, and the most readers the model admits need more.
func TestLayoutWords(t *testing.T) {
	deep := newLayout(Config{Readers: 2, MaxWrites: 4, MaxReadsPerReader: 2}).words
	wide := newLayout(Config{Readers: maxReaders, MaxWrites: 4, MaxReadsPerReader: 2}).words
	if deep != 2 || wide <= deep {
		t.Fatalf("R=2 packs into %d words and R=%d into %d, want 2 and more", deep, maxReaders, wide)
	}
}

// Every mutation must be caught — this is what gives the checker teeth,
// and it doubles as a mechanized justification of the paper's statement
// ordering and W1 conditions.
func TestMutationsCaught(t *testing.T) {
	cases := []struct {
		mutation Mutation
		wantKind []string // any of these kinds is an acceptable catch
		cfg      Config
	}{
		{
			// Removing "slot ≠ last_slot" lets the writer recycle the
			// published slot and overwrite what fast-path readers hold.
			mutation: MutNoLastSlotExclusion,
			wantKind: []string{"lemma-4.2", "regularity", "process-order", "new-old-inversion"},
			cfg:      Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 3},
		},
		{
			// Removing the r_start == r_end check overwrites held slots.
			mutation: MutNoFreeCheck,
			wantKind: []string{"lemma-4.2", "regularity", "process-order", "new-old-inversion"},
			cfg:      Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 3},
		},
		{
			// Acquiring before releasing lets a reader transiently hold
			// two slots, overflowing the N+2 budget.
			mutation: MutAcquireBeforeRelease,
			wantKind: []string{"lemma-4.1", "lemma-4.2", "regularity"},
			cfg:      Config{Readers: 2, MaxWrites: 4, MaxReadsPerReader: 3},
		},
		{
			// Freezing before publishing freezes a stale counter: slots
			// look free while readers still hold them.
			mutation: MutFreezeBeforePublish,
			wantKind: []string{"lemma-4.1", "lemma-4.2", "regularity", "process-order", "new-old-inversion"},
			cfg:      Config{Readers: 2, MaxWrites: 4, MaxReadsPerReader: 3},
		},
		{
			// Dropping a retired buffer some reader acquired before the
			// swap leaves that reader's value load a nil buffer.
			mutation: MutDropAlways,
			wantKind: []string{"use-after-drop"},
			cfg:      Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 3, DynamicBuffers: true},
		},
		{
			// A count loaded before the swap misses an R4 that lands
			// between the load and the swap.
			mutation: MutDropStaleCount,
			wantKind: []string{"use-after-drop"},
			cfg:      Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 3, DynamicBuffers: true},
		},
		{
			// A trim without the free check takes a slot a reader
			// acquired just before W2 retired it, mid-read.
			mutation: MutTrimHeld,
			wantKind: []string{"use-after-drop", "lemma-4.2"},
			cfg:      Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 3, Trim: true},
		},
		{
			// A trim without the last_slot exclusion takes the
			// published slot, which reads free (0 = 0) until W3.
			mutation: MutTrimCurrent,
			wantKind: []string{"use-after-drop", "lemma-4.2"},
			cfg:      Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 3, Trim: true},
		},
	}
	for _, c := range cases {
		t.Run(c.mutation.String(), func(t *testing.T) {
			cfg := c.cfg
			cfg.Mutation = c.mutation
			res, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("mutation %s not caught over %d states — checker has no teeth or the clause is not load-bearing",
					c.mutation, res.States)
			}
			ok := false
			for _, k := range c.wantKind {
				if res.Violation.Kind == k {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("mutation %s caught as %q, expected one of %v (%s)",
					c.mutation, res.Violation.Kind, c.wantKind, res.Violation.Desc)
			}
			t.Logf("%s caught: %v", c.mutation, res.Violation)
		})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Readers: 0, MaxWrites: 1, MaxReadsPerReader: 1},
		{Readers: 7, MaxWrites: 1, MaxReadsPerReader: 1},
		{Readers: 1, MaxWrites: 0, MaxReadsPerReader: 1},
		{Readers: 1, MaxWrites: 1, MaxReadsPerReader: 0},
		{Readers: 1, MaxWrites: 1, MaxReadsPerReader: 1, Mutation: MutDropAlways},
		{Readers: 1, MaxWrites: 1, MaxReadsPerReader: 1, Mutation: MutTrimHeld},
	}
	for _, cfg := range bad {
		if _, err := Check(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestStateBudget(t *testing.T) {
	_, err := Check(Config{Readers: 2, MaxWrites: 3, MaxReadsPerReader: 3, MaxStates: 100})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("tiny budget not enforced: %v", err)
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{Kind: "lemma-4.1", Depth: 7, Desc: "boom"}
	msg := v.Error()
	for _, want := range []string{"lemma-4.1", "depth 7", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q missing %q", msg, want)
		}
	}
}

func TestMutationStrings(t *testing.T) {
	for m := MutNone; m <= MutTrimCurrent; m++ {
		if m.String() == "unknown" {
			t.Fatalf("mutation %d has no name", m)
		}
	}
}
