// Golden record: the SHA-256 of every byte-identity case's rendered
// output, committed under testdata/golden. The digests are the oracle
// the event-mode runs are held to, so a behavior-preserving refactor
// must leave them unchanged. After an intended change to simulated
// results, regenerate them with
//
//	go test . -update
//
// and review the diff. A run restricted with -run rewrites only the
// cases it reaches; every other line is kept.
package repro_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite "+goldenFile+" from this run's outputs")

var goldenFile = filepath.Join("testdata", "golden", "digests.txt")

const goldenHeader = `# Golden digests: the SHA-256 of each byte-identity case's rendered
# output (figures, traces, breakdown and fault reports), one
# "<sha256> <case>" line per case. Regenerate with: go test . -update
`

// goldenSums maps case name to digest; loadGolden fills it on first use.
// The root package's tests never call t.Parallel, so no locking is
// needed.
var goldenSums map[string]string

func loadGolden() (map[string]string, error) {
	if goldenSums != nil {
		return goldenSums, nil
	}
	sums := map[string]string{}
	f, err := os.Open(goldenFile)
	if os.IsNotExist(err) && *updateGolden {
		goldenSums = sums
		return sums, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, name, ok := strings.Cut(line, " ")
		if !ok || len(sum) != sha256.Size*2 {
			return nil, fmt.Errorf("%s:%d: want \"<sha256> <case>\"", goldenFile, n)
		}
		sums[name] = sum
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	goldenSums = sums
	return sums, nil
}

// checkGolden compares sha256(out) with the committed digest for name,
// or records it when the test binary runs with -update.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	sums, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(h[:])
	if *updateGolden {
		sums[name] = got
		if err := writeGolden(sums); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := sums[name]
	switch {
	case !ok:
		t.Errorf("%s: no golden digest in %s (regenerate with go test . -update)", name, goldenFile)
	case got != want:
		head := out
		if len(head) > 2048 {
			head = head[:2048] + "..."
		}
		t.Errorf("%s: output digest %s differs from golden %s\n%s", name, got, want, head)
	}
}

func writeGolden(sums map[string]string) error {
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(goldenHeader)
	for _, n := range names {
		fmt.Fprintf(&sb, "%s %s\n", sums[n], n)
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenFile, []byte(sb.String()), 0o644)
}
