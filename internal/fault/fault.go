// Package fault provides named, deterministically schedulable fault
// injection points — crash, stall, yield — for chaos-testing the
// register compositions in this module.
//
// A Point is declared once, at package init, at the exact line in the
// production code where a fault is interesting (immediately before a
// publication, inside a recycle window, inside a publication window).
// The instrumentation call, Point.Hit, costs one
// atomic pointer load while the point is disarmed — cheap enough to
// leave compiled into release binaries, which is the whole trick: the
// chaos suite exercises the same machine code production runs.
//
// Faults are driven by a Schedule: a seeded set of Rules, each arming
// one point with a deterministic firing pattern (the K-th hit after
// arming, every K-th hit, or an independent seeded coin per hit). Given
// the same seed, rules, and per-point hit sequence, a schedule fires
// identically on every run — chaos failures reproduce from their seed.
//
// Crash firings unwind the calling goroutine with panic(Crashed{...});
// scenario harnesses recover that one type at the operation boundary
// and run the system's repair path, letting any other panic propagate
// as a real bug. Because a crash is an unwind, points sited where a
// non-returning caller would wedge a collective protocol (for example
// inside regmap's pubStarted/pubDone window, which Snapshot spins on)
// must register without CanCrash; NewSchedule rejects rules that try to
// arm a crash there.
package fault

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Caps declares which fault kinds a point tolerates, fixed at
// registration. The mask encodes the call site's structural guarantees:
// a point is CanCrash only if a panic there leaves the surrounding
// state machine repairable (see the package comment).
type Caps uint8

const (
	CanYield Caps = 1 << iota
	CanStall
	CanCrash
)

// Kind is the action a rule performs when it fires.
type Kind uint8

const (
	// None never fires; a Rule must pick a real kind.
	None Kind = iota
	// Yield calls runtime.Gosched — the cheapest way to shake out
	// ordering assumptions between two adjacent operations.
	Yield
	// Stall sleeps for the rule's Stall duration, modelling a preempted
	// or page-faulting writer holding a window open.
	Stall
	// Crash panics with Crashed, modelling the process dying at the
	// point (the caller's recover is the "restart").
	Crash
)

func (k Kind) String() string {
	switch k {
	case Yield:
		return "yield"
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	}
	return "none"
}

// Crashed is the panic value a Crash firing throws. Chaos harnesses
// recover exactly this type at the operation boundary and invoke their
// repair path; any other panic value is a genuine bug and must
// propagate.
type Crashed struct {
	Point string // the point that fired
	Hit   uint64 // 1-based hit index since the rule was armed
}

func (c Crashed) Error() string {
	return fmt.Sprintf("fault: injected crash at %s (hit %d)", c.Point, c.Hit)
}

// Point is a named fault-injection site. Declare with NewPoint at
// package init and call Hit at the instrumented line.
type Point struct {
	name string
	caps Caps
	// armed is the currently installed rule, nil when disarmed — the
	// single load Hit pays on the production path.
	armed     atomic.Pointer[armedRule]
	hits      atomic.Uint64 // armed hits observed (advances only while armed)
	fired     atomic.Uint64 // rule firings
	everArmed atomic.Bool   // any schedule ever armed this point (coverage)
}

// armedRule is a Rule compiled against a point at arm time.
type armedRule struct {
	kind  Kind
	on    uint64
	every uint64
	prob  uint64 // per-hit fire threshold in [0, 2^64) space; 0 disables
	stall time.Duration
	seed  uint64
	base  uint64 // point hit count when armed; firing indices restart here
}

var (
	mu       sync.Mutex
	registry = map[string]*Point{}
)

// NewPoint registers a named point with its capability mask. Call once
// per name, at package init; a duplicate name or an empty mask is a
// programming error and panics.
func NewPoint(name string, caps Caps) *Point {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic("fault: duplicate point " + name)
	}
	if caps == 0 {
		panic("fault: point " + name + " registered with no capabilities")
	}
	p := &Point{name: name, caps: caps}
	registry[name] = p
	return p
}

// Name reports the point's registered name.
func (p *Point) Name() string { return p.name }

// Hits reports how many armed hits the point has observed.
func (p *Point) Hits() uint64 { return p.hits.Load() }

// Fired reports how many times the point's armed rules fired.
func (p *Point) Fired() uint64 { return p.fired.Load() }

// Hit is the instrumentation call sited in production code: one atomic
// load when the point is disarmed, the armed rule's decision otherwise.
func (p *Point) Hit() {
	if p.armed.Load() == nil {
		return
	}
	p.slowHit()
}

func (p *Point) slowHit() {
	r := p.armed.Load()
	if r == nil {
		return
	}
	k := p.hits.Add(1) - r.base
	fire := false
	switch {
	case r.on != 0 && k == r.on:
		fire = true
	case r.every != 0 && k%r.every == 0:
		fire = true
	case r.prob != 0 && splitmix64(r.seed^nameHash(p.name)^k) < r.prob:
		fire = true
	}
	if !fire {
		return
	}
	p.fired.Add(1)
	switch r.kind {
	case Yield:
		runtime.Gosched()
	case Stall:
		time.Sleep(r.stall)
	case Crash:
		panic(Crashed{Point: p.name, Hit: k})
	}
}

// Rule arms one point with one deterministic firing pattern. Exactly
// one of On / Every / Prob should be set (the first that matches a hit
// fires): On fires at the K-th hit after arming, Every on every K-th
// hit, Prob as an independent seeded coin per hit. Stall sets the stall
// length for Kind == Stall (default 100µs).
type Rule struct {
	Point string
	Kind  Kind
	On    uint64
	Every uint64
	Prob  float64
	Stall time.Duration
}

// Schedule is a validated set of rules bound to their points, armed and
// disarmed as a unit.
type Schedule struct {
	seed   uint64
	rules  []Rule
	points []*Point
}

// NewSchedule validates rules against the registered points: every rule
// must name a registered point, pick an action the point's capability
// mask allows, and be able to fire. The seed drives Prob rules; the
// same seed reproduces the same firings.
func NewSchedule(seed uint64, rules ...Rule) (*Schedule, error) {
	s := &Schedule{seed: seed, rules: rules}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range rules {
		p, ok := registry[r.Point]
		if !ok {
			return nil, fmt.Errorf("fault: schedule arms unregistered point %q", r.Point)
		}
		var need Caps
		switch r.Kind {
		case Yield:
			need = CanYield
		case Stall:
			need = CanStall
		case Crash:
			need = CanCrash
		default:
			return nil, fmt.Errorf("fault: rule for %q has no action", r.Point)
		}
		if p.caps&need == 0 {
			return nil, fmt.Errorf("fault: point %q does not allow %v", r.Point, r.Kind)
		}
		if r.On == 0 && r.Every == 0 && r.Prob <= 0 {
			return nil, fmt.Errorf("fault: rule for %q can never fire (zero On/Every/Prob)", r.Point)
		}
		s.points = append(s.points, p)
	}
	return s, nil
}

// Arm installs the schedule's rules into their points. Firing indices
// count from zero at each Arm, so a schedule is deterministic per
// arming, not per process. Arming a point twice (same or different
// schedule) replaces the earlier rule.
func (s *Schedule) Arm() {
	for i, r := range s.rules {
		p := s.points[i]
		stall := r.Stall
		if stall == 0 {
			stall = 100 * time.Microsecond
		}
		var prob uint64
		if r.Prob >= 1 {
			prob = math.MaxUint64
		} else if r.Prob > 0 {
			prob = uint64(r.Prob * float64(math.MaxUint64))
		}
		p.armed.Store(&armedRule{
			kind:  r.Kind,
			on:    r.On,
			every: r.Every,
			prob:  prob,
			stall: stall,
			seed:  s.seed,
			base:  p.hits.Load(),
		})
		p.everArmed.Store(true)
	}
}

// Disarm removes the schedule's rules from their points, returning the
// instrumented paths to their one-load no-op.
func (s *Schedule) Disarm() {
	for _, p := range s.points {
		p.armed.Store(nil)
	}
}

// Fired sums rule firings across the schedule's points (each point
// counted once) — the liveness check scenarios use to assert their
// schedule actually exercised the instrumented paths.
func (s *Schedule) Fired() uint64 {
	seen := make(map[*Point]struct{}, len(s.points))
	var n uint64
	for _, p := range s.points {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		n += p.Fired()
	}
	return n
}

// Points lists every registered point name, sorted.
func Points() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Coverage partitions the registered points by whether any schedule has
// ever armed them in this process — the suite-level check that no
// declared fault point is dead instrumentation. Both slices are sorted.
func Coverage() (armed, unarmed []string) {
	mu.Lock()
	defer mu.Unlock()
	for name, p := range registry {
		if p.everArmed.Load() {
			armed = append(armed, name)
		} else {
			unarmed = append(unarmed, name)
		}
	}
	sort.Strings(armed)
	sort.Strings(unarmed)
	return armed, unarmed
}

// splitmix64 is the SplitMix64 mixing function — a full-avalanche
// bijection, so per-hit coins derived from (seed, point, index) are
// independent and reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nameHash is FNV-1a over the point name, mixed into Prob coins so two
// points armed by one schedule fire independently.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
