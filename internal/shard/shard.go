// Package shard is the one sharding scheme the storage and session layers
// share. Index maps an ID onto one of n shards with 32-bit FNV-1a; Map is a
// string-keyed map spread over shards by Index, each shard guarded by its
// own RWMutex. The bank's sharded backend, the fixed-form and adaptive
// session indexes and the capture monitor all hash through Index, so a hot
// ID lands on the same shard number in every layer.
package shard

import (
	"sort"
	"sync"
)

// Index maps id onto one of n shards (n > 0) with FNV-1a. It is the
// hash/fnv 32a sum mod n, inlined so the per-request path allocates nothing
// (hash.Hash32 would allocate on every call).
//
//assess:hotpath
func Index(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Map is a concurrency-safe map from string IDs to V. A shard lock guards
// only its map (insert, lookup, delete); whatever V points at carries its own
// synchronization, so operations on unrelated IDs never contend. Scans
// (Len, Keys, Values) lock one shard at a time — there is no stop-the-world
// lock, and entries put or deleted concurrently with a scan may or may not
// appear in it.
type Map[V any] struct {
	shards []mapShard[V]
}

type mapShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// NewMap returns an empty map with n shards; n must be positive.
func NewMap[V any](n int) *Map[V] {
	m := &Map[V]{shards: make([]mapShard[V], n)}
	for i := range m.shards {
		m.shards[i].m = make(map[string]V)
	}
	return m
}

func (m *Map[V]) shard(id string) *mapShard[V] {
	return &m.shards[Index(id, len(m.shards))]
}

// Get returns the value stored under id.
//
//assess:hotpath
func (m *Map[V]) Get(id string) (V, bool) {
	sh := m.shard(id)
	sh.mu.RLock()
	v, ok := sh.m[id]
	sh.mu.RUnlock()
	return v, ok
}

// Put stores v under id, replacing any previous value.
func (m *Map[V]) Put(id string, v V) {
	sh := m.shard(id)
	sh.mu.Lock()
	sh.m[id] = v
	sh.mu.Unlock()
}

// Delete removes id; deleting an absent ID is a no-op.
func (m *Map[V]) Delete(id string) {
	sh := m.shard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Keys returns every stored ID, sorted.
func (m *Map[V]) Keys() []string {
	var keys []string
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			keys = append(keys, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Values returns every stored value, ordered by ID.
func (m *Map[V]) Values() []V {
	type entry struct {
		id string
		v  V
	}
	var all []entry
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id, v := range sh.m {
			all = append(all, entry{id, v})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]V, len(all))
	for i, e := range all {
		out[i] = e.v
	}
	return out
}
