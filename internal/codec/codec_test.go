package codec

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"partminer/internal/graph"
	"partminer/internal/pattern"
)

func testDB() graph.Database {
	db := graph.RandomDatabase(rand.New(rand.NewSource(6)), 6, 5, 6, 2, 2)
	db[2].BumpUpdateFreq(1, 0.25)
	db = append(db, graph.New(41)) // a graph with no vertices
	return db
}

// sameDatabase fails unless got is want graph for graph, ids and update
// frequencies included.
func sameDatabase(t *testing.T, got, want graph.Database) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d graphs, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].ID != want[i].ID || !reflect.DeepEqual(got[i].UFreq, want[i].UFreq) {
			t.Fatalf("graph %d changed: %v, want %v", i, got[i], want[i])
		}
	}
}

// sameSet fails unless got has want's keys, supports and TIDs exactly.
func sameSet(t *testing.T, got, want pattern.Set) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("set diff: %v", got.Diff(want))
	}
	for key, p := range want {
		if !got[key].TIDs.Equal(p.TIDs) {
			t.Fatalf("pattern %s: TIDs %v, want %v", key, got[key].TIDs, p.TIDs)
		}
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	for _, db := range []graph.Database{testDB(), {}} {
		frame, err := EncodeDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeDatabase(frame)
		if err != nil {
			t.Fatal(err)
		}
		sameDatabase(t, back, db)
		if again, _ := EncodeDatabase(back); !bytes.Equal(again, frame) {
			t.Error("re-encoding a decoded database changes its bytes")
		}
	}
}

func TestSetRoundTrip(t *testing.T) {
	db := testDB()
	full := pattern.BruteForce(db, 2, 3)
	if len(full) == 0 {
		t.Fatal("empty brute-force set")
	}
	for name, set := range map[string]pattern.Set{"mined": full, "empty": {}} {
		t.Run(name, func(t *testing.T) {
			frame, err := EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := EncodeSet(set); !bytes.Equal(again, frame) {
				t.Error("two encodings of one set differ")
			}
			back, err := DecodeSet(frame, len(db))
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, back, set)
		})
	}
}

func gobOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileFrames: payloads sealed with a valid header and checksum, so
// that they reach gob and the validators, are refused with an error
// naming the frame's kind — never a panic — as are damaged frames.
func TestHostileFrames(t *testing.T) {
	asSet := func(frame []byte) error { _, err := DecodeSet(frame, 8); return err }
	asDB := func(frame []byte) error { _, err := DecodeDatabase(frame); return err }
	set := func(ps ...Pattern) []byte { return Seal(KindSet, gobOf(t, ps)) }
	edge := []int{0, 1, 0, 0, 0}
	one := func(tids ...int) Pattern { return Pattern{Code: edge, Support: len(tids), TIDs: tids} }
	db := func(g Graph) []byte { return Seal(KindDatabase, gobOf(t, []Graph{g})) }
	pair := []int{0, 0}
	good, err := EncodeSet(pattern.Set{})
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	versioned := bytes.Clone(good)
	versioned[4]++

	cases := []struct {
		name   string
		frame  []byte
		decode func([]byte) error
		want   string
	}{
		{"negative TID", set(one(-5)), asSet, "TID -5 outside [0, 8)"},
		{"TID past the database", set(one(8)), asSet, "TID 8 outside [0, 8)"},
		{"unsorted TIDs", set(one(3, 1)), asSet, "not strictly ascending"},
		{"duplicate TIDs", set(one(2, 2)), asSet, "not strictly ascending"},
		{"support is not the TID count", set(Pattern{Code: edge, Support: 3, TIDs: []int{1}}), asSet, "support 3 but 1 TIDs"},
		{"empty code", set(Pattern{}), asSet, "not a whole number of edges"},
		{"ragged code", set(Pattern{Code: edge[:4], Support: 1, TIDs: []int{0}}), asSet, "not a whole number of edges"},
		{"duplicate key", set(one(1), one(2)), asSet, "duplicate key"},
		{"edge out of range", db(Graph{Labels: pair, Edges: []int{0, 5, 0}}), asDB, "out of range"},
		{"self-loop", db(Graph{Labels: pair, Edges: []int{1, 1, 0}}), asDB, "self-loop"},
		{"duplicate edge", db(Graph{Labels: pair, Edges: []int{0, 1, 0, 1, 0, 2}}), asDB, "duplicate edge"},
		{"ragged edges", db(Graph{Labels: pair, Edges: []int{0, 1}}), asDB, "not whole (u, v, label) triples"},
		{"update frequencies per vertex", db(Graph{Labels: pair, UFreq: []float64{1}}), asDB, "1 update frequencies for 2 vertices"},
		{"a set frame as a database", good, asDB, "database: the frame holds a pattern set"},
		{"a database payload in a set frame", Seal(KindSet, gobOf(t, []Graph{{Labels: pair}})), asSet, "pattern set"},
		{"not gob", Seal(KindSet, []byte("garbage")), asSet, "pattern set"},
		{"not a frame", []byte("t # 0\nv 0 1\n"), asSet, "not a codec frame"},
		{"truncated", good[:len(good)-1], asSet, "the header says"},
		{"flipped byte", flipped, asSet, "checksum mismatch"},
		{"unknown version", versioned, asSet, "format version 2"},
	}
	for _, c := range cases {
		err := c.decode(c.frame)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "codec: ") {
			t.Errorf("%s: error %v; want a codec error containing %q", c.name, err, c.want)
		}
	}
}

// fuzzDecode runs decode on data as a frame and on data sealed as a
// payload of kind: without re-sealing nearly every mutation fails the
// checksum and never reaches gob or the validators.
func fuzzDecode(data []byte, kind Kind, decode func([]byte)) {
	decode(data)
	decode(Seal(kind, data))
}

// FuzzDecodeDatabase: no input panics the database decoder, and whatever
// it accepts encodes back to a frame that decodes to the same database.
func FuzzDecodeDatabase(f *testing.F) {
	frame, err := EncodeDatabase(testDB())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[headerLen:])
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(data, KindDatabase, func(frame []byte) {
			db, err := DecodeDatabase(frame)
			if err != nil {
				return
			}
			again, err := EncodeDatabase(db)
			if err != nil {
				t.Fatalf("an accepted database does not encode: %v", err)
			}
			back, err := DecodeDatabase(again)
			if err != nil {
				t.Fatalf("a re-encoded database does not decode: %v", err)
			}
			sameDatabase(t, back, db)
		})
	})
}

// FuzzDecodeSet: no input panics the set decoder, and whatever it accepts
// encodes back to a frame that decodes to the same set.
func FuzzDecodeSet(f *testing.F) {
	frame, err := EncodeSet(pattern.BruteForce(testDB(), 2, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[headerLen:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(data, KindSet, func(frame []byte) {
			set, err := DecodeSet(frame, 8)
			if err != nil {
				return
			}
			again, err := EncodeSet(set)
			if err != nil {
				t.Fatalf("an accepted set does not encode: %v", err)
			}
			back, err := DecodeSet(again, 8)
			if err != nil {
				t.Fatalf("a re-encoded set does not decode: %v", err)
			}
			sameSet(t, back, set)
		})
	})
}
