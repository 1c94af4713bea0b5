package exec

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheConcurrent churns a small cache from several goroutines: under
// -race this proves Get/Put/Len are synchronized, and the bound must hold
// at every moment.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%40)
				if v, ok := c.Get(key); ok && v != len(key) {
					t.Errorf("Get(%q) = %d, want %d", key, v, len(key))
				}
				c.Put(key, len(key))
				if n := c.Len(); n > 16 {
					t.Errorf("cache grew to %d entries, bound 16", n)
				}
			}
		}(g)
	}
	wg.Wait()
}
