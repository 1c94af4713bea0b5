package pattern

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"partminer/internal/dfscode"
)

// WriteSet serializes a pattern set as text, one pattern per line:
//
//	p <support> <I J LI LE LJ>×size t <tids...>
//
// terminated by a "." line. The format is shared by result persistence
// (internal/core) and the distributed mining protocol (internal/cluster).
func WriteSet(w io.Writer, set Set) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "patterns %d\n", len(set))
	for _, key := range set.Keys() {
		fmt.Fprintln(bw, FormatPattern(set[key]))
	}
	fmt.Fprintln(bw, ".")
	return bw.Flush()
}

// ReadSet parses a set written by WriteSet. n sizes the TID bitsets.
func ReadSet(r io.Reader, n int) (Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("pattern: empty set stream")
	}
	var count int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "patterns %d", &count); err != nil {
		return nil, fmt.Errorf("pattern: bad set header %q", sc.Text())
	}
	set := make(Set, count)
	for i := 0; i < count; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("pattern: truncated set (%d of %d read)", i, count)
		}
		p, err := ParsePattern(strings.TrimSpace(sc.Text()), n)
		if err != nil {
			return nil, err
		}
		set[p.Code.Key()] = p
	}
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "." {
		return nil, fmt.Errorf("pattern: missing set terminator")
	}
	return set, sc.Err()
}

// FormatPattern renders one pattern as the "p ..." line ParsePattern
// accepts.
func FormatPattern(p *Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p %d", p.Support)
	for _, e := range p.Code {
		fmt.Fprintf(&b, " %d %d %d %d %d", e.I, e.J, e.LI, e.LE, e.LJ)
	}
	b.WriteString(" t")
	if p.TIDs != nil {
		for _, tid := range p.TIDs.Slice() {
			fmt.Fprintf(&b, " %d", tid)
		}
	}
	return b.String()
}

// ParsePattern decodes one "p ..." line; n sizes the TID bitset.
func ParsePattern(l string, n int) (*Pattern, error) {
	fields := strings.Fields(l)
	if len(fields) < 2 || fields[0] != "p" {
		return nil, fmt.Errorf("pattern: bad pattern line %q", l)
	}
	support, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("pattern: bad support in %q", l)
	}
	ti := -1
	for j, f := range fields {
		if f == "t" {
			ti = j
			break
		}
	}
	if ti == -1 || (ti-2)%5 != 0 {
		return nil, fmt.Errorf("pattern: malformed pattern line %q", l)
	}
	var code dfscode.Code
	for j := 2; j < ti; j += 5 {
		ints := make([]int, 5)
		for o := 0; o < 5; o++ {
			v, err := strconv.Atoi(fields[j+o])
			if err != nil {
				return nil, fmt.Errorf("pattern: bad edge int in %q", l)
			}
			ints[o] = v
		}
		code = append(code, dfscode.EdgeCode{I: ints[0], J: ints[1], LI: ints[2], LE: ints[3], LJ: ints[4]})
	}
	tids := NewTIDSet(n)
	for j := ti + 1; j < len(fields); j++ {
		tid, err := strconv.Atoi(fields[j])
		if err != nil {
			return nil, fmt.Errorf("pattern: bad tid in %q", l)
		}
		tids.Add(tid)
	}
	return &Pattern{Code: code, Support: support, TIDs: tids}, nil
}
