package dfscode

import (
	"context"
	"sync"

	"partminer/internal/exec"
)

// CanonMemo caches IsCanonical verdicts for one mining run, keyed by the
// code's string key. Canonicality is a pure function of the code, so a
// memo may be shared by every miner in a run: PartMiner's units mine
// overlapping pattern spaces at reduced support, and without the memo
// each unit (and each engine in the gspan/gaston ablation) re-runs the
// minimum-DFS-code construction — factorial in the pattern's
// automorphisms — for the same symmetric patterns.
//
// A CanonMemo is safe for concurrent use. The zero value is not usable;
// construct with NewCanonMemo. A nil *CanonMemo is valid and simply
// forwards to IsCanonicalTick uncached.
type CanonMemo struct {
	mu sync.RWMutex
	m  map[string]bool
}

// NewCanonMemo returns an empty memo.
func NewCanonMemo() *CanonMemo { return &CanonMemo{m: make(map[string]bool)} }

// IsCanonicalTick reports whether c is the minimum DFS code of the graph
// it encodes, consulting and filling the memo. Verdicts computed under a
// fired ticker are never cached: an aborted check conservatively reports
// "not canonical", which must not outlive the cancelled run.
func (cm *CanonMemo) IsCanonicalTick(c Code, tick *exec.Ticker) bool {
	if cm == nil {
		return IsCanonicalTick(c, tick)
	}
	key := c.Key()
	cm.mu.RLock()
	v, ok := cm.m[key]
	cm.mu.RUnlock()
	if ok {
		return v
	}
	v = IsCanonicalTick(c, tick)
	if tick.Err() == nil {
		cm.mu.Lock()
		cm.m[key] = v
		cm.mu.Unlock()
	}
	return v
}

// Len returns the number of memoized verdicts.
func (cm *CanonMemo) Len() int {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	return len(cm.m)
}

type memoKey struct{}

// WithMemo returns a context carrying a fresh CanonMemo. PartMiner wraps
// its run context with one so every unit miner shares a single memo
// through the fixed IndexedUnitMiner signature.
func WithMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, memoKey{}, NewCanonMemo())
}

// MemoFrom returns the memo carried by ctx, or nil. Miners that find none
// create a run-local memo instead.
func MemoFrom(ctx context.Context) *CanonMemo {
	cm, _ := ctx.Value(memoKey{}).(*CanonMemo)
	return cm
}
