// Package algs is the one table of (1,N) register constructions: the
// facade's six algorithms in AlgorithmID order, then the two ARC
// ablations the harness measures. The facade (New, AlgorithmID.String,
// the WithReaders default) and the harness (NewRegister, MaxReaders,
// ParseAlgorithm) read this table and nothing else, so a construction
// is added or retired in one line.
package algs

import (
	"arcreg/internal/arc"
	"arcreg/internal/leftright"
	"arcreg/internal/lockreg"
	"arcreg/internal/notify"
	"arcreg/internal/peterson"
	"arcreg/internal/register"
	"arcreg/internal/rf"
	"arcreg/internal/seqlock"
	"arcreg/internal/word"
)

// Register is what every construction in the table builds: a (1,N)
// register that carries a publication sequencer, so watchers park on
// every algorithm alike.
type Register interface {
	register.Register
	Notifier() *notify.Sequencer
}

// Entry is one construction.
type Entry struct {
	// Name is the harness and CLI spelling, and AlgorithmID.String for
	// the facade's six.
	Name string
	// MaxReaders is the architectural reader bound.
	MaxReaders int
	// New builds the register. dynamic selects ARC's §3.3 exact-size
	// buffers (arc.Options.DynamicBuffers); the other constructions have
	// no such variant and ignore it (the facade rejects the combination).
	New func(cfg register.Config, dynamic bool) (Register, error)
}

// Facade is the number of leading entries the facade names as
// AlgorithmIDs; the entries after them are harness-only ablations.
const Facade = 6

// Table lists every construction.
var Table = []Entry{
	{"arc", arcMax, arcWith(arc.Options{})},
	{"rf", rf.MaxReaders, baseline(rf.New)},
	{"peterson", peterson.MaxReaders, baseline(peterson.New)},
	{"lock", lockreg.MaxReaders, baseline(lockreg.New)},
	{"seqlock", seqlock.MaxReaders, baseline(seqlock.New)},
	{"leftright", leftright.MaxReaders, baseline(leftright.New)},
	{"arc-nofastpath", arcMax, arcWith(arc.Options{DisableFastPath: true})},
	{"arc-nohint", arcMax, arcWith(arc.Options{DisableFreeHint: true})},
}

const arcMax = int(word.ARCMaxReaders)

// Lookup returns the entry named name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Table {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists the table's names in order.
func Names() []string {
	names := make([]string, len(Table))
	for i, e := range Table {
		names[i] = e.Name
	}
	return names
}

func arcWith(base arc.Options) func(register.Config, bool) (Register, error) {
	return func(cfg register.Config, dynamic bool) (Register, error) {
		opts := base
		opts.DynamicBuffers = dynamic
		return wrap(arc.New(cfg, opts))
	}
}

func baseline[R Register](newReg func(register.Config) (R, error)) func(register.Config, bool) (Register, error) {
	return func(cfg register.Config, _ bool) (Register, error) { return wrap(newReg(cfg)) }
}

// wrap returns a nil interface on error, never one holding a nil pointer.
func wrap[R Register](r R, err error) (Register, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}
