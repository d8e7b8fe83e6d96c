package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositorySizeTableIsTheTree holds EXPERIMENTS.md "Repository size —
// non-test LoC per package" to PackageLoC over the tree it is committed
// with: a change that moves a package's count regenerates the table (-update
// rewrites it).
func TestRepositorySizeTableIsTheTree(t *testing.T) {
	loc, err := PackageLoC()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| package | LoC |\n|---|---:|\n")
	for _, r := range loc.Rows[:len(loc.Rows)-1] {
		b.WriteString("| `" + r[0] + "` | " + r[1] + " |\n")
	}
	b.WriteString("| **total** | " + loc.Rows[len(loc.Rows)-1][1] + " |\n")
	want := b.String()

	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	sec := strings.Index(text, "## Repository size — non-test LoC per package")
	head := strings.Index(text[sec+1:], "| package | LoC |\n")
	if sec < 0 || head < 0 {
		t.Fatal(`EXPERIMENTS.md has no "Repository size" table`)
	}
	i := sec + 1 + head
	j := i + strings.Index(text[i:], "| **total** |")
	j += strings.IndexByte(text[j:], '\n') + 1
	if have := text[i:j]; have != want {
		if !*update {
			t.Fatalf("EXPERIMENTS.md's repository-size table is not the tree's (rerun with -update):\n%s\nwant:\n%s", have, want)
		}
		if err := os.WriteFile(path, []byte(text[:i]+want+text[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
