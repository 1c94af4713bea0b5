package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"partminer/internal/codec"
	"partminer/internal/graph"
)

// FuzzLoadSnapshot: no input panics LoadSnapshot, as a frame or as a
// payload sealed with a valid checksum (without re-sealing nearly every
// mutation fails the checksum and never reaches gob or the validators),
// and whatever it accepts saves and loads again to the same patterns.
func FuzzLoadSnapshot(f *testing.F) {
	db := graph.RandomDatabase(rand.New(rand.NewSource(57)), 3, 4, 4, 2, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 2})
	if err != nil {
		f.Fatal(err)
	}
	var frame, payload bytes.Buffer
	if err := SaveSnapshot(&frame, res); err != nil {
		f.Fatal(err)
	}
	var s snapshot
	if err := codec.Decode(codec.KindSnapshot, frame.Bytes(), &s); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&payload).Encode(&s); err != nil {
		f.Fatal(err)
	}
	f.Add(frame.Bytes())
	f.Add(payload.Bytes())
	f.Add([]byte("partminer-snapshot v1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, codec.Seal(codec.KindSnapshot, data)} {
			_, res, err := LoadSnapshot(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var again bytes.Buffer
			if err := SaveSnapshot(&again, res); err != nil {
				t.Fatalf("a loaded snapshot does not save: %v", err)
			}
			_, back, err := LoadSnapshot(&again)
			if err != nil {
				t.Fatalf("a re-saved snapshot does not load: %v", err)
			}
			if !back.Patterns.Equal(res.Patterns) {
				t.Fatalf("re-save changed the patterns: %v", back.Patterns.Diff(res.Patterns))
			}
		}
	})
}
