package shard

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
)

// TestIndexMatchesFNV32a pins the one sharding scheme: Index is the
// hash/fnv 32a sum mod n, so every layer that shards by ID agrees on which
// shard an ID lands in.
func TestIndexMatchesFNV32a(t *testing.T) {
	ids := []string{"", "a", "q001", "final", "alice", "s-000042", "cat-7", "日本語"}
	for _, n := range []int{1, 2, 16, 32, 33} {
		for _, id := range ids {
			h := fnv.New32a()
			h.Write([]byte(id))
			want := int(h.Sum32() % uint32(n))
			if got := Index(id, n); got != want {
				t.Errorf("Index(%q, %d) = %d, want %d", id, n, got, want)
			}
		}
	}
}

func TestMapOperations(t *testing.T) {
	m := NewMap[int](4)
	if _, ok := m.Get("x"); ok {
		t.Error("empty map returned a value")
	}
	for i, id := range []string{"c", "a", "b"} {
		m.Put(id, i)
	}
	m.Put("a", 10)
	if v, ok := m.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d, %v; want 10, true", v, ok)
	}
	if got := m.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := m.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v", got)
	}
	if got := m.Values(); !reflect.DeepEqual(got, []int{10, 2, 0}) {
		t.Errorf("Values = %v, want key order [10 2 0]", got)
	}
	m.Delete("b")
	m.Delete("absent")
	if _, ok := m.Get("b"); ok {
		t.Error("deleted key still present")
	}
	if got := m.Len(); got != 2 {
		t.Errorf("Len after delete = %d, want 2", got)
	}
}

// TestMapConcurrent exercises every operation from many goroutines; run it
// under -race.
func TestMapConcurrent(t *testing.T) {
	m := NewMap[*int](8)
	const workers, ops = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("k%d", (w*ops+i)%97)
				v := i
				switch i % 5 {
				case 0, 1:
					m.Put(id, &v)
				case 2:
					if p, ok := m.Get(id); ok && p == nil {
						t.Error("stored nil")
					}
				case 3:
					m.Delete(id)
				case 4:
					if n, keys := m.Len(), m.Keys(); n < 0 || len(keys) > 97 {
						t.Errorf("Len %d / Keys %d out of range", n, len(keys))
					}
					_ = m.Values()
				}
			}
		}(w)
	}
	wg.Wait()
	if n, keys := m.Len(), m.Keys(); n != len(keys) {
		t.Errorf("quiescent Len %d != len(Keys) %d", n, len(keys))
	}
}

// TestMapGetAllocs pins the per-request lookup to zero allocations: every
// learner operation resolves its session through Get.
func TestMapGetAllocs(t *testing.T) {
	type session struct{ n int }
	m := NewMap[*session](32)
	m.Put("session-000001", &session{1})
	var hit bool
	allocs := testing.AllocsPerRun(1000, func() {
		_, hit = m.Get("session-000001")
		_, _ = m.Get("missing")
	})
	if !hit {
		t.Fatal("lookup missed")
	}
	if allocs != 0 {
		t.Errorf("Map.Get allocs/op = %v, want 0", allocs)
	}
}
