// Package pattern defines the common currency of every miner in this
// repository: a frequent subgraph pattern (canonical DFS code + support +
// supporting transaction ids) and sets of patterns keyed by canonical code.
// It also hosts the brute-force reference miner used by differential tests.
package pattern

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"partminer/internal/dfscode"
)

// Pattern is a frequent subgraph: its canonical (minimum) DFS code, its
// support in the database it was mined from, and optionally the set of
// transaction ids supporting it.
type Pattern struct {
	Code    dfscode.Code
	Support int
	TIDs    *TIDSet // nil when the miner did not track transaction ids
}

// Size returns the number of edges in the pattern (the paper's notion of
// graph size).
func (p *Pattern) Size() int { return len(p.Code) }

// Clone deep-copies the pattern.
func (p *Pattern) Clone() *Pattern {
	c := &Pattern{Code: p.Code.Clone(), Support: p.Support}
	if p.TIDs != nil {
		c.TIDs = p.TIDs.Clone()
	}
	return c
}

func (p *Pattern) String() string {
	return fmt.Sprintf("{%s sup=%d}", p.Code, p.Support)
}

// Set is a collection of patterns keyed by canonical code key.
type Set map[string]*Pattern

// Add inserts p, keeping the larger support if the key already exists.
func (s Set) Add(p *Pattern) {
	k := p.Code.Key()
	if old, ok := s[k]; ok {
		if p.Support > old.Support {
			s[k] = p
		}
		return
	}
	s[k] = p
}

// BySize splits the set into slices of patterns grouped by edge count;
// result[k] holds the k-edge patterns (result[0] is empty). The slices are
// sorted by code for determinism.
func (s Set) BySize() [][]*Pattern {
	max := 0
	for _, p := range s {
		if p.Size() > max {
			max = p.Size()
		}
	}
	out := make([][]*Pattern, max+1)
	for _, p := range s {
		out[p.Size()] = append(out[p.Size()], p)
	}
	for _, ps := range out {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Code.Compare(ps[j].Code) < 0 })
	}
	return out
}

// Keys returns the sorted canonical keys, handy for comparisons in tests.
func (s Set) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Equal reports whether two sets contain the same patterns with the same
// supports.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for k, p := range s {
		q, ok := o[k]
		if !ok || q.Support != p.Support {
			return false
		}
	}
	return true
}

// Diff describes the difference between two sets as human-readable lines;
// empty means equal. Tests use it for actionable failures.
func (s Set) Diff(o Set) []string {
	var out []string
	for k, p := range s {
		q, ok := o[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("only in left:  %s", p))
		case q.Support != p.Support:
			out = append(out, fmt.Sprintf("support diff: %s left=%d right=%d", p.Code, p.Support, q.Support))
		}
	}
	for k, q := range o {
		if _, ok := s[k]; !ok {
			out = append(out, fmt.Sprintf("only in right: %s", q))
		}
	}
	sort.Strings(out)
	return out
}

// Filter returns the subset with support >= minSup.
func (s Set) Filter(minSup int) Set {
	out := make(Set, len(s))
	for k, p := range s {
		if p.Support >= minSup {
			out[k] = p
		}
	}
	return out
}

// TIDSet is a bitset of transaction ids (database indexes).
type TIDSet struct {
	words []uint64
}

// NewTIDSet returns an empty set sized for n transactions; it grows
// automatically if larger ids are added.
func NewTIDSet(n int) *TIDSet {
	return &TIDSet{words: make([]uint64, (n+63)/64)}
}

// FullTIDSet returns the set {0, …, n-1}, filled a word at a time.
func FullTIDSet(n int) *TIDSet {
	t := NewTIDSet(n)
	for i := range t.words {
		t.words[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		t.words[len(t.words)-1] = 1<<r - 1
	}
	return t
}

// Add inserts tid.
func (t *TIDSet) Add(tid int) {
	w := tid / 64
	for w >= len(t.words) {
		t.words = append(t.words, 0)
	}
	t.words[w] |= 1 << (tid % 64)
}

// Remove deletes tid; removing an absent tid is a no-op.
func (t *TIDSet) Remove(tid int) {
	w := tid / 64
	if w < len(t.words) {
		t.words[w] &^= 1 << (tid % 64)
	}
}

// Contains reports membership.
func (t *TIDSet) Contains(tid int) bool {
	w := tid / 64
	return w < len(t.words) && t.words[w]&(1<<(tid%64)) != 0
}

// Count returns the cardinality.
func (t *TIDSet) Count() int {
	n := 0
	for _, w := range t.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Intersect returns a new set holding the intersection with o.
func (t *TIDSet) Intersect(o *TIDSet) *TIDSet {
	n := len(t.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := &TIDSet{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = t.words[i] & o.words[i]
	}
	return out
}

// IntersectWith narrows t to the intersection with o in place — the
// allocation-free form of Intersect for callers that own t (candidate
// verification chains one IntersectWith per subpattern instead of a
// Clone+Intersect allocation pair). It returns t.
func (t *TIDSet) IntersectWith(o *TIDSet) *TIDSet {
	n := len(t.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		t.words[i] &= o.words[i]
	}
	for i := n; i < len(t.words); i++ {
		t.words[i] = 0
	}
	return t
}

// IntersectCount returns |t ∩ o| without allocating.
func (t *TIDSet) IntersectCount(o *TIDSet) int {
	n := len(t.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(t.words[i] & o.words[i])
	}
	return count
}

// IntersectCountMulti returns |sets[0] ∩ sets[1] ∩ ... | in a single
// fused pass: for each word index the k-way AND is computed in registers
// and popcounted immediately, so every word of every set is touched
// exactly once regardless of k. The chained alternative
// (Clone+IntersectWith per set, then Count) walks the accumulator k+1
// times and writes it back k times; the fused kernel does neither, which
// is what makes cover-pruner upper bounds O(words) instead of
// O(k·words) with k round trips through the cache.
//
// The pass is blocked so that with many sets the working strip of every
// operand stays cache-resident. An all-zero block short-circuits the
// remaining sets for that word. An empty slice returns 0.
func IntersectCountMulti(sets []*TIDSet) int {
	if len(sets) == 0 {
		return 0
	}
	if len(sets) == 1 {
		return sets[0].Count()
	}
	// The intersection can only cover the shortest operand.
	n := len(sets[0].words)
	for _, s := range sets[1:] {
		if len(s.words) < n {
			n = len(s.words)
		}
	}
	const block = 512 // words per strip: 4KiB per operand, L1-resident for small k
	count := 0
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			w := sets[0].words[i] & sets[1].words[i]
			for _, s := range sets[2:] {
				if w == 0 {
					break
				}
				w &= s.words[i]
			}
			count += bits.OnesCount64(w)
		}
	}
	return count
}

// AndNotCount returns |t \ o| without allocating.
func (t *TIDSet) AndNotCount(o *TIDSet) int {
	n := len(t.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(t.words[i] &^ o.words[i])
	}
	for _, w := range t.words[n:] {
		count += bits.OnesCount64(w)
	}
	return count
}

// UnionWith widens t to the union with o in place, growing t's backing
// array when o is longer — the allocation-free form of Union for callers
// that own t. It returns t.
func (t *TIDSet) UnionWith(o *TIDSet) *TIDSet {
	if len(o.words) > len(t.words) {
		grown := make([]uint64, len(o.words))
		copy(grown, t.words)
		t.words = grown
	}
	for i, w := range o.words {
		t.words[i] |= w
	}
	return t
}

// MinusWith removes o's members from t in place and returns t.
func (t *TIDSet) MinusWith(o *TIDSet) *TIDSet {
	n := len(t.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		t.words[i] &^= o.words[i]
	}
	return t
}

// Minus returns a new set holding the members of t not in o.
func (t *TIDSet) Minus(o *TIDSet) *TIDSet {
	out := &TIDSet{words: append([]uint64(nil), t.words...)}
	n := len(out.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		out.words[i] &^= o.words[i]
	}
	return out
}

// Union returns a new set holding the union with o.
func (t *TIDSet) Union(o *TIDSet) *TIDSet {
	a, b := t.words, o.words
	if len(b) > len(a) {
		a, b = b, a
	}
	out := &TIDSet{words: make([]uint64, len(a))}
	copy(out.words, a)
	for i := range b {
		out.words[i] |= b[i]
	}
	return out
}

// Equal reports whether t and o contain the same tids. Trailing zero
// words are ignored, so sets sized for different capacities still compare
// by content.
func (t *TIDSet) Equal(o *TIDSet) bool {
	a, b := t.words, o.words
	if len(b) > len(a) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member tid in ascending order. Unlike
// Slice it never allocates: hot read loops iterate candidates straight
// off the words, and a closure capturing locals stays on the stack
// because fn does not escape.
func (t *TIDSet) ForEach(fn func(tid int)) {
	for wi, w := range t.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &^= 1 << b
		}
	}
}

// ForEachUntil is ForEach with early exit: iteration stops the first
// time fn returns false. It reports whether the walk ran to completion,
// so cancellable verification loops can distinguish "exhausted" from
// "stopped".
func (t *TIDSet) ForEachUntil(fn func(tid int) bool) bool {
	for wi, w := range t.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*64 + b) {
				return false
			}
			w &^= 1 << b
		}
	}
	return true
}

// Slice returns the member tids in ascending order.
func (t *TIDSet) Slice() []int {
	out := make([]int, 0, t.Count())
	for wi, w := range t.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << b
		}
	}
	return out
}

// Clone copies the set.
func (t *TIDSet) Clone() *TIDSet {
	return &TIDSet{words: append([]uint64(nil), t.words...)}
}

func (t *TIDSet) String() string {
	ids := t.Slice()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
