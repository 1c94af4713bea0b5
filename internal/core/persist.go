package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"partminer/internal/graph"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// Portable returns a shallow copy of the result with the
// non-serializable function options (UnitMinerIndexed, Observer)
// stripped, so a result mined through a custom miner — a
// cluster coordinator, joined or dialed — can still be saved with
// SaveResult/SaveSnapshot. The stripped copy loads as if it had been
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

// SaveResult serializes a mining result so that incremental mining can
// resume in a later process (the paper's dynamic-environment scenario
// rarely fits one process lifetime). The partition tree itself is not
// stored: partitioning is deterministic, so LoadResult rebuilds it from
// the database and the recorded options.
//
// Results produced with a custom Bisector or UnitMinerIndexed cannot be
// saved (the functions are not serializable); use the built-in criteria
// or Portable.
func SaveResult(w io.Writer, res *Result) error {
	bisector, err := bisectorName(res.Options.Bisector)
	if err != nil {
		return err
	}
	if res.Options.UnitMinerIndexed != nil {
		return fmt.Errorf("core: results with a custom UnitMinerIndexed cannot be saved")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "partminer-result v1")
	fmt.Fprintf(bw, "options minsup=%d k=%d maxedges=%d envelope=%d parallel=%t bisector=%s\n",
		res.Options.MinSupport, res.Options.K, res.Options.MaxEdges, res.Options.GrowthEnvelope,
		res.Options.Parallel, bisector)
	fmt.Fprintf(bw, "dbsize %d\n", len(res.Tree.Root.DB))
	fmt.Fprintf(bw, "unitsupport %d\n", res.UnitSupport)
	writeSet := func(name string, set pattern.Set) {
		fmt.Fprintf(bw, "set %s %d\n", name, len(set))
		for _, key := range set.Keys() {
			fmt.Fprintln(bw, pattern.FormatPattern(set[key]))
		}
	}
	writeSet("patterns", res.Patterns)
	for i, set := range res.UnitPatterns {
		writeSet(fmt.Sprintf("unit:%d", i), set)
	}
	for _, path := range sortedNodePaths(res.NodeSets) {
		writeSet("node:"+pathToken(path), res.NodeSets[path])
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// LoadResult reconstructs a saved result against the same database it was
// mined from. The database must be byte-identical in content and order;
// partitioning is re-derived deterministically.
func LoadResult(r io.Reader, db graph.Database) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	line := 0
	next := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		line++
		return strings.TrimSpace(sc.Text()), true
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: load result line %d: %s", line, fmt.Sprintf(format, args...))
	}

	header, ok := next()
	if !ok || header != "partminer-result v1" {
		return nil, fail("bad header %q", header)
	}
	optLine, ok := next()
	if !ok || !strings.HasPrefix(optLine, "options ") {
		return nil, fail("missing options line")
	}
	res := &Result{NodeSets: make(map[string]pattern.Set)}
	for _, kv := range strings.Fields(optLine)[1:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fail("bad option %q", kv)
		}
		switch parts[0] {
		case "minsup":
			res.Options.MinSupport, _ = strconv.Atoi(parts[1])
		case "k":
			res.Options.K, _ = strconv.Atoi(parts[1])
		case "maxedges":
			res.Options.MaxEdges, _ = strconv.Atoi(parts[1])
		case "envelope":
			res.Options.GrowthEnvelope, _ = strconv.Atoi(parts[1])
		case "strictpaper":
			// Written by files saved before the option was removed.
			if parts[1] == "true" {
				return nil, fail("saved with the removed StrictPaperJoin option; mine again")
			}
		case "parallel":
			res.Options.Parallel = parts[1] == "true"
		case "bisector":
			b, err := bisectorByName(parts[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			res.Options.Bisector = b
		default:
			return nil, fail("unknown option %q", parts[0])
		}
	}

	sizeLine, ok := next()
	if !ok {
		return nil, fail("missing dbsize")
	}
	var dbsize int
	if _, err := fmt.Sscanf(sizeLine, "dbsize %d", &dbsize); err != nil {
		return nil, fail("bad dbsize line %q", sizeLine)
	}
	if dbsize != len(db) {
		return nil, fmt.Errorf("core: saved result covers %d graphs; database has %d", dbsize, len(db))
	}
	usLine, ok := next()
	if !ok {
		return nil, fail("missing unitsupport")
	}
	if _, err := fmt.Sscanf(usLine, "unitsupport %d", &res.UnitSupport); err != nil {
		return nil, fail("bad unitsupport line %q", usLine)
	}

	readSet := func(count int) (pattern.Set, error) {
		set := make(pattern.Set, count)
		for i := 0; i < count; i++ {
			l, ok := next()
			if !ok {
				return nil, fail("truncated pattern set")
			}
			p, err := pattern.ParsePattern(l, len(db))
			if err != nil {
				return nil, fail("%v", err)
			}
			set[p.Code.Key()] = p
		}
		return set, nil
	}

	for {
		l, ok := next()
		if !ok {
			return nil, fail("missing end marker")
		}
		if l == "end" {
			break
		}
		var name string
		var count int
		if _, err := fmt.Sscanf(l, "set %s %d", &name, &count); err != nil {
			return nil, fail("bad set header %q", l)
		}
		set, err := readSet(count)
		if err != nil {
			return nil, err
		}
		switch {
		case name == "patterns":
			res.Patterns = set
		case strings.HasPrefix(name, "unit:"):
			idx, err := strconv.Atoi(name[len("unit:"):])
			if err != nil || idx < 0 {
				return nil, fail("bad unit set %q", name)
			}
			for len(res.UnitPatterns) <= idx {
				res.UnitPatterns = append(res.UnitPatterns, nil)
			}
			res.UnitPatterns[idx] = set
		case strings.HasPrefix(name, "node:"):
			res.NodeSets[tokenToPath(name[len("node:"):])] = set
		default:
			return nil, fail("unknown set %q", name)
		}
	}
	if res.Patterns == nil {
		return nil, fmt.Errorf("core: saved result has no pattern set")
	}

	// Rebuild the partition tree deterministically.
	if err := res.Options.normalize(); err != nil {
		return nil, err
	}
	tree, err := partition.DBPartition(db, res.Options.K, res.Options.Bisector)
	if err != nil {
		return nil, err
	}
	res.Tree = tree
	res.PartitionQuality = tree.Quality
	if len(res.UnitPatterns) != len(tree.Leaves()) {
		return nil, fmt.Errorf("core: saved result has %d unit sets; partitioning yields %d units",
			len(res.UnitPatterns), len(tree.Leaves()))
	}
	return res, nil
}

// snapshotHeader begins a combined database+result file; the database
// section ends where the embedded result's own header line begins.
const snapshotHeader = "partminer-snapshot v1"

// SaveSnapshot serializes the mined database together with its result in
// one self-contained file: unlike SaveResult, no separate copy of the
// database needs to survive for a later process to resume. This is the
// server's warm-start format (`partserved -restore`): the database text
// section is followed by the SaveResult section, and LoadSnapshot wires
// them back together. The same custom-Bisector/UnitMinerIndexed restrictions as
// SaveResult apply.
func SaveSnapshot(w io.Writer, res *Result) error {
	if res == nil || res.Tree == nil {
		return fmt.Errorf("core: snapshot requires a result with its partition tree")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, snapshotHeader)
	if err := graph.WriteDatabase(bw, res.Tree.Root.DB); err != nil {
		return err
	}
	if err := SaveResult(bw, res); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSnapshot reads a file written by SaveSnapshot, returning the
// database and the result reconstructed against it (partition tree
// re-derived, feature index left nil for the next run to rebuild).
func LoadSnapshot(r io.Reader) (graph.Database, *Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	text := string(data)
	nl := strings.IndexByte(text, '\n')
	if nl < 0 || strings.TrimRight(text[:nl], "\r") != snapshotHeader {
		return nil, nil, fmt.Errorf("core: not a snapshot file (missing %q header)", snapshotHeader)
	}
	body := text[nl+1:]
	// The database section runs until the embedded result header. The
	// result header line cannot occur inside the database text format
	// (every db line starts with 't', 'v', 'e', '%', or is blank).
	sep := "partminer-result v1"
	cut := -1
	if strings.HasPrefix(body, sep) {
		cut = 0
	} else if i := strings.Index(body, "\n"+sep); i >= 0 {
		cut = i + 1
	}
	if cut < 0 {
		return nil, nil, fmt.Errorf("core: snapshot has no embedded result section")
	}
	db, err := graph.ReadDatabase(strings.NewReader(body[:cut]))
	if err != nil {
		return nil, nil, fmt.Errorf("core: snapshot database: %w", err)
	}
	res, err := LoadResult(strings.NewReader(body[cut:]), db)
	if err != nil {
		return nil, nil, err
	}
	return db, res, nil
}

// pathToken encodes a tree path for the file format; the root's empty
// path becomes ".".
func pathToken(path string) string {
	if path == "" {
		return "."
	}
	return path
}

func tokenToPath(tok string) string {
	if tok == "." {
		return ""
	}
	return tok
}

func sortedNodePaths(sets map[string]pattern.Set) []string {
	paths := make([]string, 0, len(sets))
	for p := range sets {
		paths = append(paths, p)
	}
	// Shorter paths (higher tree levels) first, then lexicographic.
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if len(paths[j]) < len(paths[i]) || (len(paths[j]) == len(paths[i]) && paths[j] < paths[i]) {
				paths[i], paths[j] = paths[j], paths[i]
			}
		}
	}
	return paths
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

func bisectorByName(name string) (partition.Bisector, error) {
	return partition.ByName(name)
}
