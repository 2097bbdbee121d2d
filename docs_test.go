package jade

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
