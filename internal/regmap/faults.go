package regmap

// Fault-injection points and chaos hooks. The points are permanent
// instrumentation (one atomic load each while disarmed — they ride the
// writer's publish paths, never the reader's hot Get); the hooks exist
// for the chaos suite (cmd/arcstress) and tests.
//
// Crash capability follows one placement rule: a point may allow Crash
// only where (a) it sits outside publishDir — a crash inside its
// beginPub/endPub window would leave pubStarted != pubDone forever and
// wedge Snapshot's seqlock wait, and one between its store and its
// wakes would lose watchers the wakeup — and (b) the writer-side tables
// (index, wregs, wgens, wkeys, freeSlots) are mutually consistent at
// the point, so that compact() — which rebuilds the published log and
// slot arrays purely from those tables — is a complete repair for
// whatever the crash left unpublished.

import (
	"fmt"

	"arcreg/internal/fault"
)

// Fault point names, exported for schedules (cmd/arcstress, tests).
const (
	// FaultValuePublish sits inside a value Set's publication window,
	// between beginPub and the register write. Stall/yield only.
	FaultValuePublish = "regmap/value-publish"
	// FaultDirPrepublish sits in addKey and Delete after all writer
	// state is mutated and the log entry appended, before the
	// publication window opens. Crashing here models dying with a
	// fully prepared but unpublished directory entry.
	FaultDirPrepublish = "regmap/dir-prepublish"
	// FaultDirPublish sits inside the publication window of addKey's
	// and Delete's publishDir, between beginPub and the directory
	// store. Stall/yield only.
	FaultDirPublish = "regmap/dir-publish"
	// FaultDeleteRecycle sits in Delete after the key is unbound from
	// the writer tables and its slot recycled, before the tombstone is
	// appended. Crashing here models dying with a delete applied but
	// never published — the canonical divergence compact() repairs.
	FaultDeleteRecycle = "regmap/delete-recycle"
	// FaultCompactBuilt sits in compact after the fresh log is built
	// and the writer counters bumped, before the publication window
	// opens. Crashing here models dying mid-compaction; the next compact
	// simply rebuilds.
	FaultCompactBuilt = "regmap/compact-built"
	// FaultCompactPublish sits inside compact's publication window,
	// between beginPub and the directory store. Stall/yield only.
	FaultCompactPublish = "regmap/compact-publish"
)

var (
	faultValuePublish   = fault.NewPoint(FaultValuePublish, fault.CanYield|fault.CanStall)
	faultDirPrepublish  = fault.NewPoint(FaultDirPrepublish, fault.CanYield|fault.CanStall|fault.CanCrash)
	faultDirPublish     = fault.NewPoint(FaultDirPublish, fault.CanYield|fault.CanStall)
	faultDeleteRecycle  = fault.NewPoint(FaultDeleteRecycle, fault.CanYield|fault.CanStall|fault.CanCrash)
	faultCompactBuilt   = fault.NewPoint(FaultCompactBuilt, fault.CanYield|fault.CanStall|fault.CanCrash)
	faultCompactPublish = fault.NewPoint(FaultCompactPublish, fault.CanYield|fault.CanStall)
)

// SetDirCapacity overrides the per-shard directory-log ceiling — a test
// and chaos hook (the stress scenarios shrink it to drive compaction
// epochs in seconds instead of days). Call before any concurrent use of
// a Map; the returned function restores the previous ceiling.
func SetDirCapacity(n int) (restore func()) {
	saved := dirCapacity
	dirCapacity = n
	return func() { dirCapacity = saved }
}

// InjectDirectoryCorruption publishes a syntactically corrupt directory
// log on shard si — a chaos hook modelling a bit-flipped log. The
// published bytes extend the current log with an entry
// whose varint cannot terminate, so every reader that refreshes onto the
// publication latches ErrShardCorrupt. The writer's own tables are left
// untouched: its next publication on the shard (an append, or a
// Compact) republishes the genuine state, which is what readers repair
// onto. Same single-writer-per-shard contract as Set and Delete.
func (m *Map) InjectDirectoryCorruption(si int) error {
	if si < 0 || si >= len(m.shards) {
		return fmt.Errorf("regmap: shard %d out of range", si)
	}
	sh := m.shards[si]
	bad := append([]byte(nil), sh.dirBuf...)
	for i := 0; i < 10; i++ {
		bad = append(bad, 0xff) // an overlong varint: Uvarint reports overflow
	}
	sh.publishDir(bad, faultDirPublish)
	return nil
}
