// Package codec is the one format for everything that leaves the
// process — a graph database, a pattern set, a mining snapshot: a frame
// (magic, version, kind, payload length, CRC-32C) around a gob payload of
// the plain wire types below; gob is what net/rpc speaks on the cluster
// wire. Decoding is total: header, length and checksum are checked before
// gob sees a byte and every graph and pattern is validated as it is
// rebuilt, so hostile bytes yield an error naming the kind, never a panic.
// Encoding is deterministic: sets are written in key order.
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// Kind says what a frame holds; a frame decodes only as its own kind.
type Kind byte

const (
	KindDatabase Kind = 1 + iota
	KindSet
	KindSnapshot
)

var kindNames = [...]string{KindDatabase: "database", KindSet: "pattern set", KindSnapshot: "snapshot"}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind %d", byte(k))
}

// The header: magic, version byte, kind byte, payload length (uint64) and
// the payload's CRC-32C (uint32), big-endian.
const (
	magic     = "PMCF"
	version   = 1
	headerLen = len(magic) + 2 + 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Gob numbers a type when a process first encodes it, and the numbers are
// part of the bytes: encoding the wire types at start-up makes a database
// or set frame the same in every process. The encodes cannot fail.
func init() {
	enc := gob.NewEncoder(io.Discard)
	_, _ = enc.Encode([]Graph{}), enc.Encode([]Pattern{})
}

// Seal frames payload as kind.
func Seal(kind Kind, payload []byte) []byte {
	frame := make([]byte, headerLen, headerLen+len(payload))
	copy(frame, magic)
	frame[4] = version
	frame[5] = byte(kind)
	binary.BigEndian.PutUint64(frame[6:], uint64(len(payload)))
	binary.BigEndian.PutUint32(frame[14:], crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// Encode gob-encodes v and seals it as kind.
func Encode(kind Kind, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("codec: encode %s: %v", kind, err)
	}
	return Seal(kind, buf.Bytes()), nil
}

// Decode checks a frame's header, length and checksum against kind, then
// gob-decodes its payload into v, which must point to the type the frame
// was encoded from.
func Decode(kind Kind, frame []byte, v any) error {
	var err error
	switch {
	case len(frame) < headerLen || string(frame[:len(magic)]) != magic:
		err = errors.New("not a codec frame")
	case frame[4] != version:
		err = fmt.Errorf("format version %d; this build reads version %d", frame[4], version)
	case Kind(frame[5]) != kind:
		err = fmt.Errorf("the frame holds a %s", Kind(frame[5]))
	case binary.BigEndian.Uint64(frame[6:]) != uint64(len(frame)-headerLen):
		err = fmt.Errorf("payload is %d bytes; the header says %d", len(frame)-headerLen, binary.BigEndian.Uint64(frame[6:]))
	case crc32.Checksum(frame[headerLen:], castagnoli) != binary.BigEndian.Uint32(frame[14:]):
		err = errors.New("checksum mismatch")
	default:
		err = gob.NewDecoder(bytes.NewReader(frame[headerLen:])).Decode(v)
	}
	if err != nil {
		return fmt.Errorf("codec: %s: %v", kind, err)
	}
	return nil
}

// Graph is one database graph on the wire.
type Graph struct {
	ID     int
	Labels []int
	// UFreq is nil when the graph carries no update statistics, else one
	// entry per vertex.
	UFreq []float64
	// Edges holds (u, v, label) triples with u < v.
	Edges []int
}

// Pattern is one pattern on the wire.
type Pattern struct {
	// Code is the DFS code flattened: I, J, LI, LE, LJ per edge.
	Code    []int
	Support int
	// TIDs are the supporting transaction ids, strictly ascending.
	TIDs []int
}

// FromDatabase converts db to its wire form. The result shares db's label
// and update-frequency slices; encode it before db changes.
func FromDatabase(db graph.Database) []Graph {
	out := make([]Graph, len(db))
	for i, g := range db {
		w := Graph{ID: g.ID, Labels: g.Labels, UFreq: g.UFreq, Edges: make([]int, 0, 3*g.EdgeCount())}
		for u, adj := range g.Adj {
			for _, e := range adj {
				if u < e.To {
					w.Edges = append(w.Edges, u, e.To, e.Label)
				}
			}
		}
		out[i] = w
	}
	return out
}

// ToDatabase rebuilds a database from its wire form through AddVertex and
// AddEdge, so endpoints, self-loops and duplicate edges are checked.
func ToDatabase(ws []Graph) (graph.Database, error) {
	db := make(graph.Database, len(ws))
	for i, w := range ws {
		if len(w.UFreq) != 0 && len(w.UFreq) != len(w.Labels) {
			return nil, fmt.Errorf("graph %d: %d update frequencies for %d vertices", i, len(w.UFreq), len(w.Labels))
		}
		if len(w.Edges)%3 != 0 {
			return nil, fmt.Errorf("graph %d: %d edge ints are not whole (u, v, label) triples", i, len(w.Edges))
		}
		g := graph.New(w.ID)
		for _, l := range w.Labels {
			g.AddVertex(l)
		}
		if len(w.UFreq) != 0 {
			g.UFreq = w.UFreq
		}
		for e := 0; e < len(w.Edges); e += 3 {
			if err := g.AddEdge(w.Edges[e], w.Edges[e+1], w.Edges[e+2]); err != nil {
				return nil, fmt.Errorf("graph %d: %v", i, err)
			}
		}
		db[i] = g
	}
	return db, nil
}

// FromSet converts set to its wire form, in key order.
func FromSet(set pattern.Set) []Pattern {
	keys := set.Keys()
	out := make([]Pattern, len(keys))
	for i, key := range keys {
		p := set[key]
		w := Pattern{Code: make([]int, 0, 5*len(p.Code)), Support: p.Support}
		for _, e := range p.Code {
			w.Code = append(w.Code, e.I, e.J, e.LI, e.LE, e.LJ)
		}
		if p.TIDs != nil {
			w.TIDs = p.TIDs.Slice()
		}
		out[i] = w
	}
	return out
}

// ToSet rebuilds the pattern set of a database of n graphs from its wire
// form: every code is whole edges, every TID lies in [0, n) in strictly
// ascending order, every support counts its TIDs and no key repeats.
func ToSet(ws []Pattern, n int) (pattern.Set, error) {
	set := make(pattern.Set, len(ws))
	for i, w := range ws {
		if len(w.Code) == 0 || len(w.Code)%5 != 0 {
			return nil, fmt.Errorf("pattern %d: a code of %d ints is not a whole number of edges", i, len(w.Code))
		}
		if w.Support != len(w.TIDs) {
			return nil, fmt.Errorf("pattern %d: support %d but %d TIDs", i, w.Support, len(w.TIDs))
		}
		tids := pattern.NewTIDSet(n)
		for j, tid := range w.TIDs {
			if tid < 0 || tid >= n {
				return nil, fmt.Errorf("pattern %d: TID %d outside [0, %d)", i, tid, n)
			}
			if j > 0 && tid <= w.TIDs[j-1] {
				return nil, fmt.Errorf("pattern %d: TIDs not strictly ascending at %d", i, tid)
			}
			tids.Add(tid)
		}
		code := make(dfscode.Code, len(w.Code)/5)
		for j := range code {
			c := w.Code[5*j:]
			code[j] = dfscode.EdgeCode{I: c[0], J: c[1], LI: c[2], LE: c[3], LJ: c[4]}
		}
		key := code.Key()
		if _, dup := set[key]; dup {
			return nil, fmt.Errorf("pattern %d: duplicate key %q", i, key)
		}
		set[key] = &pattern.Pattern{Code: code, Support: w.Support, TIDs: tids}
	}
	return set, nil
}

// EncodeDatabase frames db.
func EncodeDatabase(db graph.Database) ([]byte, error) { return Encode(KindDatabase, FromDatabase(db)) }

// DecodeDatabase reads a frame written by EncodeDatabase.
func DecodeDatabase(frame []byte) (graph.Database, error) {
	return decode(KindDatabase, frame, ToDatabase)
}

// EncodeSet frames set.
func EncodeSet(set pattern.Set) ([]byte, error) { return Encode(KindSet, FromSet(set)) }

// DecodeSet reads a frame written by EncodeSet for a database of n graphs.
func DecodeSet(frame []byte, n int) (pattern.Set, error) {
	return decode(KindSet, frame, func(ws []Pattern) (pattern.Set, error) { return ToSet(ws, n) })
}

// decode opens a frame of kind and builds its value from the wire form.
func decode[W, T any](kind Kind, frame []byte, build func(W) (T, error)) (T, error) {
	var w W
	if err := Decode(kind, frame, &w); err != nil {
		var none T
		return none, err
	}
	t, err := build(w)
	if err != nil {
		err = fmt.Errorf("codec: %s: %w", kind, err)
	}
	return t, err
}
