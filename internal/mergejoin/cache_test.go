package mergejoin

import (
	"fmt"
	"testing"

	"partminer/internal/exec"
)

// TestSubKeyCacheSurvivesOverflow verifies the memo's fractional eviction:
// overflowing the cache must evict only a bounded slice of entries, not
// reset the whole memo (the pre-eviction behavior this regression-tests).
func TestSubKeyCacheSurvivesOverflow(t *testing.T) {
	const size = 64
	memo := exec.NewCache[[]string](size)
	for i := 0; i < size; i++ {
		memo.Put(fmt.Sprintf("key-%d", i), []string{"sub"})
	}
	if n := memo.Len(); n != size {
		t.Fatalf("cache holds %d entries before overflow, want %d", n, size)
	}
	// Overwriting a held key is not an overflow.
	memo.Put("key-0", []string{"other"})
	if n := memo.Len(); n != size {
		t.Fatalf("cache holds %d entries after an overwrite, want %d", n, size)
	}

	// The overflowing store evicts a quarter of the entries and then
	// inserts, so most of the working set must survive.
	memo.Put("overflow", []string{"sub"})
	if n, want := memo.Len(), size-size/4+1; n != want {
		t.Errorf("cache holds %d entries after overflow, want %d (evicted 1/4)", n, want)
	}
	if _, ok := memo.Get("overflow"); !ok {
		t.Error("the overflowing entry itself was not stored")
	}
}
