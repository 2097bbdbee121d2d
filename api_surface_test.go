package jade

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite the golden files under testdata/ that the selected tests compare against, from the current source")

// apiSurface lists every exported top-level identifier of the jade
// facade — funcs, types, consts, vars, and methods on exported types —
// one per line, sorted.
func apiSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["jade"]
	if !ok {
		t.Fatalf("package jade not found in %v", pkgs)
	}
	var lines []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					recv := recvName(d.Recv)
					if recv == "" || !ast.IsExported(recv) {
						continue
					}
					lines = append(lines, fmt.Sprintf("method (%s) %s", recv, d.Name.Name))
					continue
				}
				lines = append(lines, "func "+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, n := range s.Names {
							if n.IsExported() {
								lines = append(lines, kind+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

func recvName(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return ""
	}
	switch e := fl.List[0].Type.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// TestAPISurface diffs the facade's exported surface against the golden
// listing so API changes are deliberate: run `go test -run TestAPISurface
// -update .` to accept an intentional change.
func TestAPISurface(t *testing.T) {
	got := strings.Join(apiSurface(t), "\n") + "\n"
	golden := filepath.Join("testdata", "api_surface.txt")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestAPISurface -update .`): %v", err)
	}
	if got == string(want) {
		return
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[l] = true
	}
	var diff []string
	for l := range gotSet {
		if !wantSet[l] {
			diff = append(diff, "+ "+l)
		}
	}
	for l := range wantSet {
		if !gotSet[l] {
			diff = append(diff, "- "+l)
		}
	}
	sort.Strings(diff)
	t.Fatalf("exported API surface changed (+added, -removed); run `go test -run TestAPISurface -update .` if intentional:\n%s",
		strings.Join(diff, "\n"))
}
