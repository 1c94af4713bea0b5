package graph

import (
	"strings"
	"testing"
)

// FuzzReadDatabase checks that the text parser never panics on arbitrary
// input, that the stream and in-memory entries (ReadDatabase,
// ParseDatabase) accept the same inputs with the same graphs or errors,
// and that everything accepted round-trips stably.
func FuzzReadDatabase(f *testing.F) {
	f.Add("t # 0\nv 0 1\nv 1 2\ne 0 1 3\n")
	f.Add("t # 1\nv 0 5 2.5\n")
	f.Add("% comment\n\nt # 2\n")
	f.Add("t # 0\nv 0 1\ne 0 0 1\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ReadDatabase(strings.NewReader(data))
		parsed, perr := ParseDatabase(data)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("ReadDatabase error %v, ParseDatabase error %v", err, perr)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if len(parsed) != len(db) {
			t.Fatalf("ReadDatabase read %d graphs, ParseDatabase %d", len(db), len(parsed))
		}
		for i := range db {
			if !parsed[i].Equal(db[i]) || parsed[i].ID != db[i].ID {
				t.Fatalf("graph %d: ReadDatabase and ParseDatabase disagree", i)
			}
		}
		var sb strings.Builder
		if err := WriteDatabase(&sb, db); err != nil {
			t.Fatalf("accepted database failed to serialize: %v", err)
		}
		back, err := ReadDatabase(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reserialized database failed to parse: %v", err)
		}
		if len(back) != len(db) {
			t.Fatalf("round trip changed graph count: %d -> %d", len(db), len(back))
		}
		for i := range db {
			if !back[i].Equal(db[i]) {
				t.Fatalf("round trip changed graph %d", i)
			}
		}
		// Serialization must be a fixed point: once normalized through
		// one write/read cycle, a second write is byte-identical.
		var sb2 strings.Builder
		if err := WriteDatabase(&sb2, back); err != nil {
			t.Fatalf("second serialize failed: %v", err)
		}
		if sb2.String() != sb.String() {
			t.Fatalf("serialization not stable:\nfirst:  %q\nsecond: %q", sb.String(), sb2.String())
		}
	})
}
