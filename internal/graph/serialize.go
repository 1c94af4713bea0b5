package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format follows the conventions of the gSpan/Gaston dataset
// files, extended with an optional per-vertex update frequency:
//
//	t # <graph-id>
//	v <vertex-id> <label> [<ufreq>]
//	e <u> <v> <label>
//
// Vertices must be declared before the edges that use them, with dense ids
// in declaration order. Blank lines and lines starting with '%' are
// ignored.

// Format renders a single graph in the text format.
func Format(g *Graph) string {
	var b strings.Builder
	writeGraph(&b, g)
	return b.String()
}

func writeGraph(b *strings.Builder, g *Graph) {
	fmt.Fprintf(b, "t # %d\n", g.ID)
	for v, l := range g.Labels {
		if g.UFreq != nil && g.UFreq[v] != 0 {
			fmt.Fprintf(b, "v %d %d %g\n", v, l, g.UFreq[v])
		} else {
			fmt.Fprintf(b, "v %d %d\n", v, l)
		}
	}
	for v, adj := range g.Adj {
		for _, e := range adj {
			if v < e.To {
				fmt.Fprintf(b, "e %d %d %d\n", v, e.To, e.Label)
			}
		}
	}
}

// WriteDatabase writes every graph of db to w in the text format.
func WriteDatabase(w io.Writer, db Database) error {
	bw := bufio.NewWriter(w)
	var b strings.Builder
	for _, g := range db {
		b.Reset()
		writeGraph(&b, g)
		if _, err := bw.WriteString(b.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDatabase parses a database from r. It validates vertex ids, edge
// endpoints, and duplicate edges, returning the first error with a line
// number.
func ReadDatabase(r io.Reader) (Database, error) {
	sc := bufio.NewScanner(r)
	// Start at bufio's 4 KiB and grow on demand: a query body is ~100
	// bytes, and a larger first buffer is zeroed and collected per call.
	sc.Buffer(nil, 16<<20)
	var db Database
	var cur *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "t":
			// "t # <id>"
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: malformed graph header %q", line, text)
			}
			id, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad graph id %q: %v", line, fields[2], err)
			}
			cur = New(id)
			db = append(db, cur)
		case "v":
			if cur == nil {
				return nil, fmt.Errorf("line %d: vertex before graph header", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: malformed vertex %q", line, text)
			}
			id, err1 := strconv.Atoi(fields[1])
			label, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: malformed vertex %q", line, text)
			}
			if id != cur.VertexCount() {
				return nil, fmt.Errorf("line %d: vertex id %d out of order (expected %d)", line, id, cur.VertexCount())
			}
			v := cur.AddVertex(label)
			if len(fields) >= 4 {
				uf, err := strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad update frequency %q: %v", line, fields[3], err)
				}
				cur.BumpUpdateFreq(v, uf)
			}
		case "e":
			if cur == nil {
				return nil, fmt.Errorf("line %d: edge before graph header", line)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("line %d: malformed edge %q", line, text)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			label, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("line %d: malformed edge %q", line, text)
			}
			if err := cur.AddEdge(u, v, label); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}
