package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"partminer/internal/codec"
	"partminer/internal/graph"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// Portable returns a shallow copy of the result with the
// non-serializable function options (UnitMinerIndexed, Observer)
// stripped, so a result mined through a custom miner — a
// cluster coordinator, joined or dialed — can still be saved with
// SaveSnapshot. The stripped copy loads as if it had been
// mined with the built-in Gaston miner, which is exactly right: the
// patterns are identical by the exactness contract, only the route that
// produced them differed. The pattern sets and tree are shared, not
// copied — treat the receiver as read-only afterwards.
func (res *Result) Portable() *Result {
	cp := *res
	cp.Options.UnitMinerIndexed = nil
	cp.Options.Observer = nil
	return &cp
}

// snapshot is the payload of a snapshot frame: the database, the options
// the result was mined with and every pattern set of the result. The
// partition tree is not stored — partitioning is deterministic, so
// LoadSnapshot re-derives it — and neither are the negative border and
// the feature index, which the next fold rebuilds.
type snapshot struct {
	MinSupport, K, MaxEdges, GrowthEnvelope int
	Parallel                                bool
	Bisector                                string
	UnitSupport                             int
	DB                                      []codec.Graph
	Patterns                                []codec.Pattern
	Units                                   [][]codec.Pattern
	Nodes                                   []nodeSet // sorted by path
}

// nodeSet is the merged set of the partition-tree node at Path.
type nodeSet struct {
	Path string
	Set  []codec.Pattern
}

// SaveSnapshot writes the mined database together with its result as one
// codec frame, so a later process can resume incremental mining
// (`partminer -resume`) or serving (`partserved -restore`) from it alone.
// Two saves of one result are byte-identical. Results mined with an
// unregistered Bisector or a custom UnitMinerIndexed cannot be saved (the
// functions are not serializable); use a registered strategy, or Portable.
func SaveSnapshot(w io.Writer, res *Result) error {
	if res == nil || res.Tree == nil {
		return fmt.Errorf("core: snapshot requires a result with its partition tree")
	}
	if res.Options.UnitMinerIndexed != nil {
		return fmt.Errorf("core: results with a custom UnitMinerIndexed cannot be saved")
	}
	bisector, err := bisectorName(res.Options.Bisector)
	if err != nil {
		return err
	}
	o := res.Options
	s := snapshot{
		MinSupport: o.MinSupport, K: o.K, MaxEdges: o.MaxEdges, GrowthEnvelope: o.GrowthEnvelope,
		Parallel: o.Parallel, Bisector: bisector, UnitSupport: res.UnitSupport,
		DB:       codec.FromDatabase(res.Tree.Root.DB),
		Patterns: codec.FromSet(res.Patterns),
	}
	for _, set := range res.UnitPatterns {
		s.Units = append(s.Units, codec.FromSet(set))
	}
	paths := make([]string, 0, len(res.NodeSets))
	for path := range res.NodeSets {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		s.Nodes = append(s.Nodes, nodeSet{Path: path, Set: codec.FromSet(res.NodeSets[path])})
	}
	frame, err := codec.Encode(codec.KindSnapshot, &s)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// LoadSnapshot reads a frame written by SaveSnapshot and returns the
// database and the result rebuilt against it: the partition tree is
// re-derived, the border and the feature index are left for the next run
// to rebuild. Every count, key and TID is checked before it is used.
func LoadSnapshot(r io.Reader) (graph.Database, *Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	if bytes.HasPrefix(data, []byte("partminer-")) {
		header, _, _ := bytes.Cut(data[:min(len(data), 32)], []byte("\n"))
		return nil, nil, fmt.Errorf("core: %q is a pre-codec text file, which this version no longer reads; mine the database again", header)
	}
	var s snapshot
	if err := codec.Decode(codec.KindSnapshot, data, &s); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	db, res, err := s.rebuild()
	if err != nil {
		return nil, nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return db, res, nil
}

// rebuild validates a decoded snapshot and builds its database and result.
func (s *snapshot) rebuild() (graph.Database, *Result, error) {
	db, err := codec.ToDatabase(s.DB)
	if err != nil {
		return nil, nil, err
	}
	bisector, err := partition.ByName(s.Bisector)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		UnitSupport: s.UnitSupport,
		NodeSets:    make(map[string]pattern.Set, len(s.Nodes)),
		Options: Options{MinSupport: s.MinSupport, K: s.K, MaxEdges: s.MaxEdges,
			GrowthEnvelope: s.GrowthEnvelope, Parallel: s.Parallel, Bisector: bisector},
	}
	if err := res.Options.normalize(); err != nil {
		return nil, nil, err
	}
	// Checked before partitioning: K sizes the tree DBPartition builds.
	if len(s.Units) != res.Options.K {
		return nil, nil, fmt.Errorf("%d unit sets for K = %d", len(s.Units), res.Options.K)
	}
	// Every unit and node database holds one piece per graph, so all sets
	// index TIDs the way the database does.
	if res.Patterns, err = codec.ToSet(s.Patterns, len(db)); err != nil {
		return nil, nil, fmt.Errorf("patterns: %w", err)
	}
	res.UnitPatterns = make([]pattern.Set, len(s.Units))
	for i, ws := range s.Units {
		if res.UnitPatterns[i], err = codec.ToSet(ws, len(db)); err != nil {
			return nil, nil, fmt.Errorf("unit %d: %w", i, err)
		}
	}
	for _, n := range s.Nodes {
		if _, dup := res.NodeSets[n.Path]; dup {
			return nil, nil, fmt.Errorf("node %q: duplicate", n.Path)
		}
		if res.NodeSets[n.Path], err = codec.ToSet(n.Set, len(db)); err != nil {
			return nil, nil, fmt.Errorf("node %q: %w", n.Path, err)
		}
	}
	tree, err := partition.DBPartition(db, res.Options.K, bisector)
	if err != nil {
		return nil, nil, err
	}
	res.Tree = tree
	res.PartitionQuality = tree.Quality
	return db, res, nil
}

// bisectorName resolves a bisector to its registered strategy name via
// the partition registry; nil means the normalize() default.
func bisectorName(b partition.Bisector) (string, error) {
	if b == nil {
		return "partition3", nil // the normalize() default
	}
	if name, ok := partition.NameOf(b); ok {
		return name, nil
	}
	return "", fmt.Errorf("core: bisector %T is not a registered strategy and cannot be serialized; register it with partition.Register or use a built-in criteria", b)
}
