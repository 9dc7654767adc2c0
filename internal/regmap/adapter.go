package regmap

import (
	"arcreg/internal/register"
)

// singleKey is the key a NewSingleKeyRegister adapter stores its value
// under.
const singleKey = "register"

// keyRegister adapts one key of a Map to the shared register.Register
// contract, so the conformance battery and the harness hold the map's
// Get/Set path to exactly the same behavioral requirements as the raw
// algorithms. Write goes through Map.Set, reads through Reader.Get — the
// full directory-probe-then-value-read path, not a shortcut.
type keyRegister struct {
	m   *Map
	key string
}

// NewSingleKeyRegister builds a Map holding a single key and adapts it to
// register.Register. cfg maps one-to-one: MaxReaders is the map's reader
// capacity, MaxValueSize the value bound, Initial the key's first value.
func NewSingleKeyRegister(cfg register.Config) (register.Register, error) {
	if cfg.MaxValueSize == 0 {
		cfg.MaxValueSize = register.DefaultMaxValueSize
	}
	m, err := New(Config{
		Shards:       4,
		MaxReaders:   cfg.MaxReaders,
		MaxValueSize: cfg.MaxValueSize,
	})
	if err != nil {
		return nil, err
	}
	if err := m.Set(singleKey, cfg.InitialOrDefault()); err != nil {
		return nil, err
	}
	return &keyRegister{m: m, key: singleKey}, nil
}

// Compile-time conformance to the shared contract.
var (
	_ register.Register = (*keyRegister)(nil)
	_ register.Writer   = (*keyRegister)(nil)
	_ register.Reader   = (*keyReader)(nil)
)

func (k *keyRegister) Name() string      { return "map" }
func (k *keyRegister) MaxReaders() int   { return k.m.MaxReaders() }
func (k *keyRegister) MaxValueSize() int { return k.m.MaxValueSize() }

// Caps implements register.Register: the map's Get/Set path inherits
// the per-key ARC registers' views, freshness probe and wait-freedom.
func (k *keyRegister) Caps() register.Caps {
	return register.Caps{
		ZeroCopyView:  true,
		FreshProbe:    true,
		WaitFreeRead:  true,
		WaitFreeWrite: true,
	}
}

// Writer implements register.Register; the adapter itself is the writer
// endpoint (single-writer, like the underlying shard).
func (k *keyRegister) Writer() register.Writer { return k }

// Write implements register.Writer via Map.Set.
func (k *keyRegister) Write(p []byte) error { return k.m.Set(k.key, p) }

// WriteStats implements register.Writer: the key's value publishes
// plus the directory publications the key creation cost.
func (k *keyRegister) WriteStats() register.WriteStats {
	ws := k.m.WriteStats()
	out := ws.Value
	out.Add(ws.Directory)
	return out
}

// NewReader implements register.Register.
func (k *keyRegister) NewReader() (register.Reader, error) {
	r, err := k.m.NewReader()
	if err != nil {
		return nil, err
	}
	return &keyReader{r: r, key: k.key}, nil
}

// keyReader adapts a map Reader to the single-key register.Reader shape.
type keyReader struct {
	r   *Reader
	key string
}

func (rd *keyReader) Read(dst []byte) (int, error) { return rd.r.GetCopy(rd.key, dst) }
func (rd *keyReader) View() ([]byte, error)        { return rd.r.Get(rd.key) }
func (rd *keyReader) Fresh() bool                  { return rd.r.Fresh(rd.key) }
func (rd *keyReader) Close() error                 { return rd.r.Close() }

func (rd *keyReader) ReadStats() register.ReadStats { return rd.r.Stats().ReadStats }
