package arcreg

// InjectShardCorruption publishes a corrupt directory on the shard key
// routes to (see regmap.Map.InjectDirectoryCorruption): every reader
// that refreshes onto it latches ErrShardCorrupt until that shard's
// directory publishes again.
func InjectShardCorruption[T any](m *MapOf[T], key string) error {
	return m.m.InjectDirectoryCorruption(m.m.ShardOf(key))
}
