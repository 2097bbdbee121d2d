package jade

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// repoFiles walks the repository and returns the relative paths of its
// files, leaving out version-control and build-output directories.
func repoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_out", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// A document holds one copy of each section: a second "## X" in the same
// file is how a merge put two diverging copies of DESIGN.md's cost
// sections back. Headings inside fenced code blocks do not count.
func TestDocsHaveNoRepeatedSections(t *testing.T) {
	for _, path := range repoFiles(t) {
		if !strings.HasSuffix(path, ".md") {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			if fenced || !strings.HasPrefix(line, "## ") {
				continue
			}
			heading := strings.TrimSpace(line)
			if first, ok := seen[heading]; ok {
				t.Errorf("%s:%d repeats %q (first at line %d)", path, i+1, heading, first)
				continue
			}
			seen[heading] = i + 1
		}
	}
}

// Every Go file DESIGN.md names in backticks exists: either as a path from
// the repository root or as the name of a file somewhere in it.
func TestDesignNamesExistingGoFiles(t *testing.T) {
	paths, names := map[string]bool{}, map[string]bool{}
	for _, path := range repoFiles(t) {
		if strings.HasSuffix(path, ".go") {
			paths[path] = true
			names[filepath.Base(path)] = true
		}
	}
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	refs := regexp.MustCompile("`([^`\\s]+\\.go)`").FindAllStringSubmatch(string(raw), -1)
	if len(refs) == 0 {
		t.Fatal("DESIGN.md names no Go file; the pattern is wrong")
	}
	for _, m := range refs {
		if !paths[m[1]] && !names[m[1]] {
			t.Errorf("DESIGN.md names %s, which is neither a repository path nor a file name in it", m[1])
		}
	}
}

// Every command the Makefile or a document runs as `./cmd/NAME` exists,
// and so does every `examples/NAME` it names, so a command folded into
// another or a deleted example cannot linger in the instructions. At the
// repository root only the instruction documents are checked; the others
// there, CHANGES.md among them, record history. README.md, DESIGN.md and
// EXPERIMENTS.md also name only tests, benchmarks and fuzz targets that
// exist in some package; a trailing `*` names a prefix.
func TestDocsNameExistingCommands(t *testing.T) {
	cmdRef := regexp.MustCompile(`\./cmd/([A-Za-z0-9_-]+)`)
	exampleRef := regexp.MustCompile(`(?:^|[\s(\x60])(?:\./)?examples/([A-Za-z0-9_.-]+)`)
	testRef := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*)(\*?)`)
	rootDocs := map[string]bool{
		"Makefile": true, "README.md": true, "DESIGN.md": true,
		"EXPERIMENTS.md": true, "ROADMAP.md": true,
	}
	testDocs := map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true}
	var tests []string
	testDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	for _, path := range repoFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(raw), -1) {
			tests = append(tests, m[1])
		}
	}
	var cmds, examples, named int
	for _, path := range repoFiles(t) {
		if !rootDocs[path] && (!strings.HasSuffix(path, ".md") || !strings.Contains(path, "/")) {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRef.FindAllStringSubmatch(string(raw), -1) {
			cmds++
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names ./cmd/%s, which is not a directory", path, m[1])
			}
		}
		for _, m := range exampleRef.FindAllStringSubmatch(string(raw), -1) {
			examples++
			if _, err := os.Stat(filepath.Join("examples", strings.TrimRight(m[1], "."))); err != nil {
				t.Errorf("%s names examples/%s, which does not exist", path, m[1])
			}
		}
		if !testDocs[path] {
			continue
		}
		for _, m := range testRef.FindAllStringSubmatch(string(raw), -1) {
			named++
			if !slices.ContainsFunc(tests, func(name string) bool {
				return name == m[1] || m[2] == "*" && strings.HasPrefix(name, m[1])
			}) {
				t.Errorf("%s names %s%s, which no test file declares", path, m[1], m[2])
			}
		}
	}
	if cmds == 0 || examples == 0 || named == 0 {
		t.Fatalf("found %d ./cmd/NAME, %d examples/NAME and %d test names in the documents; a pattern is wrong", cmds, examples, named)
	}
}

// reportSections splits a rendered `jadectl experiment` report into its
// sections' lines by title.
func reportSections(report string) map[string][]string {
	lines := strings.Split(report, "\n")
	sections := map[string][]string{}
	title := ""
	for i := 0; i < len(lines); i++ {
		if lines[i] == sectionRule && i+2 < len(lines) && lines[i+2] == sectionRule {
			title = lines[i+1]
			i += 2
			continue
		}
		if title != "" {
			sections[title] = append(sections[title], lines[i])
		}
	}
	return sections
}

// containsRun reports whether quote is a contiguous run of lines.
func containsRun(lines, quote []string) bool {
	for i := 0; i+len(quote) <= len(lines); i++ {
		if slices.Equal(lines[i:i+len(quote)], quote) {
			return true
		}
	}
	return false
}

// Every measured number EXPERIMENTS.md quotes sits in a block
// `<!-- experiment NAME -->` (or `NAME -quick`) … `<!-- end -->` whose
// lines, code fences aside, are a contiguous run of one section of
// experiment NAME in testdata/experiments.golden (or
// experiments_quick.golden). A report that moves fails its golden, and a
// quote that no longer matches fails here.
func TestExperimentsQuoteTheGoldens(t *testing.T) {
	goldens := map[bool]map[string][]string{}
	for quick, path := range map[bool]string{false: experimentsGolden, true: experimentsQuickGolden} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		goldens[quick] = reportSections(string(raw))
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	open := regexp.MustCompile(`^<!-- experiment ([a-z0-9]+)( -quick)? -->$`)
	lines := strings.Split(string(raw), "\n")
	blocks := map[bool]int{}
	for i := 0; i < len(lines); i++ {
		m := open.FindStringSubmatch(lines[i])
		if m == nil {
			if strings.HasPrefix(lines[i], "<!-- experiment") {
				t.Errorf("EXPERIMENTS.md:%d: malformed block marker %q", i+1, lines[i])
			}
			continue
		}
		start, name, quick := i+1, m[1], m[2] != ""
		var quote []string
		for i++; i < len(lines) && lines[i] != "<!-- end -->"; i++ {
			if !strings.HasPrefix(lines[i], "```") {
				quote = append(quote, lines[i])
			}
		}
		if i == len(lines) {
			t.Fatalf("EXPERIMENTS.md:%d: block %s has no <!-- end -->", start, name)
		}
		if len(quote) == 0 {
			t.Errorf("EXPERIMENTS.md:%d: block %s is empty", start, name)
			continue
		}
		blocks[quick]++
		found, matched := false, false
		for _, e := range experiments {
			if e.name == name {
				found = true
				matched = matched || containsRun(goldens[quick][e.title], quote)
			}
		}
		switch {
		case !found:
			t.Errorf("EXPERIMENTS.md:%d: no experiment %q", start, name)
		case !matched:
			t.Errorf("EXPERIMENTS.md:%d: block %s%s is not a run of lines of that experiment's report", start, name, m[2])
		}
	}
	if blocks[false] == 0 || blocks[true] == 0 {
		t.Fatalf("EXPERIMENTS.md has %d full-length and %d quick blocks; the marker pattern is wrong", blocks[false], blocks[true])
	}
}
