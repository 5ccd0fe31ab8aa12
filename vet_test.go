package repro

// Tooling regression tests: the tree must stay `go vet`-clean and
// gofmt-formatted. CI runs the same checks (see Makefile and
// .github/workflows/ci.yml); these tests catch drift locally, where CI
// may never run.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestGoVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	out, err := exec.Command(goBin, "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet ./... failed: %v\n%s", err, out)
	}
}

// TestReproLintClean keeps the tree clean under the in-repo analyzer
// suite (cmd/reprolint: detwalltime, detmapiter, detseed, allocann —
// see DESIGN.md §12). Findings print as file:line:col grouped by
// analyzer; intentional exceptions take an audited
// `//reprolint:ignore <analyzer> <reason>` marker.
func TestReproLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	out, err := exec.Command(goBin, "run", "./cmd/reprolint", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/reprolint ./... failed: %v\n%s", err, out)
	}
}

func TestGofmtClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the gofmt tool")
	}
	gofmt, err := exec.LookPath("gofmt")
	if err != nil {
		t.Skip("gofmt not in PATH")
	}
	out, err := exec.Command(gofmt, "-l", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("gofmt -l .: %v\n%s", err, out)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Errorf("files need gofmt:\n%s", files)
	}
}

// visitTestFiles calls visit with the package directory ("." or
// "./internal/x") and the source of every _test.go file in this module,
// skipping hidden directories, testdata and nested modules such as bench/.
func visitTestFiles(t *testing.T, visit func(pkg string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module, such as bench/
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg != "." {
			pkg = "./" + pkg
		}
		visit(pkg, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFuzzTargetsWired keeps the two hand-kept fuzz lists, the Makefile
// `fuzz` target and the CI `fuzz` matrix, equal to the module's fuzz
// targets: every `func FuzzX(*testing.F)` must appear in both with its
// package, and neither may name a target that is gone.
func TestFuzzTargetsWired(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	var want []string
	visitTestFiles(t, func(pkg string, src []byte) {
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			want = append(want, string(m[1])+" "+pkg)
		}
	})
	if len(want) == 0 {
		t.Fatal("found no fuzz targets")
	}
	slices.Sort(want)

	for _, list := range []struct {
		file string
		re   *regexp.Regexp
	}{
		{"Makefile", regexp.MustCompile(`-fuzz='\^(\w+)\$\$'\S* +\S+ +(\./\S+)`)},
		{".github/workflows/ci.yml", regexp.MustCompile(`\{ *fuzz: *(\w+), *pkg: *(\./[^ }]+) *\}`)},
	} {
		src, err := os.ReadFile(list.file)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, m := range list.re.FindAllSubmatch(src, -1) {
			got = append(got, string(m[1])+" "+string(m[2]))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s fuzz list:\n  %s\nwant the module's fuzz targets:\n  %s",
				list.file, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

// TestAllocTargetsWired keeps the Makefile `alloc` target, which CI's
// blocking `alloc` job runs, over the whole module: its `go test` line
// runs `-run 'TestAlloc'` on `./...` alone, so a `func TestAllocX(*testing.T)`
// declared in any package belongs to the tier.
func TestAllocTargetsWired(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func TestAlloc\w*\(\w+ \*testing\.T\)`)
	found := false
	visitTestFiles(t, func(_ string, src []byte) {
		found = found || funcRE.Match(src)
	})
	if !found {
		t.Fatal("found no allocation tests")
	}

	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^alloc:\n\t(.*)$`).FindSubmatch(src)
	if m == nil {
		t.Fatal("Makefile has no alloc target")
	}
	var got []string
	for _, f := range strings.Fields(string(m[1])) {
		if f == "." || strings.HasPrefix(f, "./") {
			got = append(got, f)
		}
	}
	if !slices.Equal(got, []string{"./..."}) || !strings.Contains(string(m[1]), "-run 'TestAlloc'") {
		t.Errorf("Makefile alloc target %q, want -run 'TestAlloc' over ./... alone", m[1])
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^\s+run: make alloc$`).Match(ci) {
		t.Error("no CI job runs make alloc")
	}
}

// testOnlyOracles are the exported functions in internal/ that no
// non-test file names but that stay: the references tests check code that
// runs against, counters that later reports will read, and methods the
// standard library calls through an interface.
var testOnlyOracles = map[string]string{
	"auditlog.ParseError.Unwrap":            "errors.Is and errors.As call it",
	"scenario.Duration.MarshalJSON":         "encoding/json calls it",
	"scenario.Duration.UnmarshalJSON":       "encoding/json calls it",
	"lint/load.moduleImporter.Import":       "go/types calls it as a types.Importer",
	"sim.Scheduler.Pending":                 "the event heap's reference-model check counts queued calls",
	"auditlog.Buffer.LeafAt":                "Merkle oracle: tests recompute leaves against it",
	"auditlog.Buffer.TreeHeadAt":            "Merkle oracle: tests rebuild historical heads against it",
	"olsr.Node.Routes":                      "equivalence oracle for the routing table",
	"olsr.Node.TopologyLinks":               "equivalence oracle for the topology table",
	"reputation.Ledger.RecommendationTrust": "equivalence oracle: the map-reference model compares it",
	"reputation.Ledger.FlaggedDishonest":    "equivalence oracle: Stats holds only the count, tests compare the set",
	"detect.Detector.LateReplies":           "counter that operational observability will report",
	"detect.Detector.ProofFailures":         "counter that operational observability will report",
}

// TestNoTestOnlyExports keeps exported API in internal/ from outliving its
// callers: every exported function or method declared in a non-test file
// under internal/ must be named by some non-test file of the module or of
// the bench/ module, or be listed in testOnlyOracles. The check is by name
// only, so a name shared with a method that is called passes.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // "pkg.Recv.Name" or "pkg.Name" -> position
	used := map[string]bool{}       // every identifier but a declared func's own name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := strings.TrimPrefix(dir, "internal/") + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			declared[key+fn.Name.Name] = fset.Position(fn.Pos()).String()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isUsed := func(key string) bool { return used[key[strings.LastIndexByte(key, '.')+1:]] }
	var unused []string
	for key, pos := range declared {
		if _, ok := testOnlyOracles[key]; !ok && !isUsed(key) {
			unused = append(unused, pos+": "+key)
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or list it in testOnlyOracles with the reason it stays", u)
	}
	for key := range testOnlyOracles {
		if _, ok := declared[key]; !ok {
			t.Errorf("testOnlyOracles names %s, which is not declared", key)
		} else if isUsed(key) {
			t.Errorf("testOnlyOracles names %s, which non-test code now names: drop it from the list", key)
		}
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
