package partminer

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the three command-line tools and drives the full
// workflow: generate a database, mine it, save the result, apply an
// update round, mine incrementally from the saved result, and regenerate
// a benchmark figure.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test builds binaries; skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := func(name string) string { return filepath.Join(tmp, name) }
	for _, name := range []string{"partminer", "datagen", "benchrunner"} {
		out, err := exec.Command("go", "build", "-o", bin(name), "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	run := func(name string, args ...string) (string, string) {
		cmd := exec.Command(bin(name), args...)
		var stdout, stderr strings.Builder
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\nstdout: %s\nstderr: %s", name, args, err, stdout.String(), stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	dbPath := filepath.Join(tmp, "db.txt")
	_, errOut := run("datagen", "-d", "60", "-t", "12", "-n", "10", "-l", "40", "-i", "4", "-seed", "3", "-o", dbPath)
	if !strings.Contains(errOut, "generating D60T12N10L40I4") {
		t.Errorf("datagen banner missing: %q", errOut)
	}
	if fi, err := os.Stat(dbPath); err != nil || fi.Size() == 0 {
		t.Fatalf("datagen produced no output: %v", err)
	}

	resPath := filepath.Join(tmp, "result.pm")
	out, errOut := run("partminer", "-minsup", "0.1", "-k", "2", "-maxedges", "4", "-save", resPath, dbPath)
	if !strings.Contains(out, "frequent subgraphs in") {
		t.Errorf("mining summary missing: %q", out)
	}
	if !strings.Contains(errOut, "saved result") {
		t.Errorf("save confirmation missing: %q", errOut)
	}

	// Same database, gspan and adimine miners must agree on the count.
	baseCount := strings.Fields(out)[0]
	for _, miner := range []string{"gspan", "adimine"} {
		mout, _ := run("partminer", "-minsup", "0.1", "-maxedges", "4", "-miner", miner, dbPath)
		if strings.Fields(mout)[0] != baseCount {
			t.Errorf("%s found %s patterns; partminer found %s", miner, strings.Fields(mout)[0], baseCount)
		}
	}

	// The removed miners are refused, naming the values that remain.
	for _, gone := range []string{"fsg", "freetree"} {
		msg, err := exec.Command(bin("partminer"), "-miner", gone, dbPath).CombinedOutput()
		if err == nil || !strings.Contains(string(msg), "(have partminer, adimine, gaston, gspan)") {
			t.Errorf("-miner %s: err %v, output %q; want a non-zero exit naming the four miners", gone, err, msg)
		}
	}

	// A growth envelope changes the route to the larger patterns, not
	// the answer: below the wall-clock line the listings are the same.
	patternLines := func(args ...string) string {
		pout, _ := run("partminer", append(args, "-minsup", "0.1", "-k", "2", "-maxedges", "4", "-patterns", dbPath)...)
		_, listing, _ := strings.Cut(pout, "\n")
		return listing
	}
	if plain, env := patternLines(), patternLines("-envelope", "2"); plain == "" || plain != env {
		t.Errorf("-envelope 2 -maxedges 4 prints a different pattern set than -maxedges 4:\n%s\nvs\n%s", env, plain)
	}

	updPath := filepath.Join(tmp, "db2.txt")
	run("datagen", "-update", "0.3", "-seed", "5", "-n", "10", "-o", updPath, dbPath)

	_, errOut = run("partminer", "-minsup", "0.1", "-k", "2", "-maxedges", "4",
		"-resume", resPath, "-updated", updPath, dbPath)
	if !strings.Contains(errOut, "resumed") {
		t.Errorf("resume banner missing: %q", errOut)
	}
	if !strings.Contains(errOut, "UF (unchanged frequent)") {
		t.Errorf("incremental classification missing: %q", errOut)
	}

	// The snapshot carries its database: resuming it against another
	// database of the same size is refused, naming both files.
	msg, err := exec.Command(bin("partminer"), "-minsup", "0.1", "-k", "2", "-maxedges", "4",
		"-resume", resPath, updPath).CombinedOutput()
	if err == nil || !strings.Contains(string(msg), resPath) || !strings.Contains(string(msg), updPath) {
		t.Errorf("-resume against another database: err %v, output %q; want a non-zero exit naming both files", err, msg)
	}

	out, _ = run("benchrunner", "-fig", "16a", "-d50k", "60", "-d100k", "60", "-maxedges", "3")
	if !strings.Contains(out, "fig16a") || !strings.Contains(out, "PartMiner") {
		t.Errorf("benchrunner output missing table: %q", out)
	}
}
