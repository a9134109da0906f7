package xpro

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateRootAPI = flag.Bool("update-root-api", false, "rewrite testdata/root_api.golden from the root package's exported declarations")

// exportAllow names the exported internal/ declarations that only tests
// call. Each stays exported because a test in another package needs it, and
// Go shares no _test.go code across packages. Keys are the package path
// under internal/, then the name, with a method's receiver type between.
// The list may only shrink: TestInternalExportsHaveCallers fails on an
// entry that gains a non-test caller or no longer exists.
var exportAllow = map[string]string{
	"topology.Synthetic":                     "random DAGs for the adaptive, cellsim, eventsim, hdl, partition and xsystem batteries",
	"topology.Graph.Relabel":                 "the partition metamorphic tests check that cuts are invariant under relabelling",
	"partition/oracle.Problem":               "the partition batteries pose their instances to the exhaustive oracle",
	"partition/oracle.Problem.Optimal":       "the exhaustive optimum the partition batteries compare the solver against",
	"maxflow.Graph.CutValue":                 "the partition tests price a named cut on the min-cut graph against the energy model",
	"partition.TierPlacement.MaxTier":        "the chaos and xsystem tiered tests read the top tier a placement uses",
	"experiments.Lab.Instances":              "the root benchmarks train the lab's instances before timing",
	"cellsim.Result.GatingSavings":           "the root ablation benchmark of clock gating reports it",
	"sensornode.CharacterizeWithMode":        "the root ablation benchmark forces each ALU mode",
	"sensornode.Hardware.TotalComputeEnergy": "the root ablation benchmarks price the compute of a whole graph",
}

// stdlibMethods are method names the standard library calls through its
// interfaces (error, fmt, errors.Is/As/Unwrap, io, sort, container/heap,
// math/rand, net/http, flag and the encoding packages), so a method with
// one of these names counts as called.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Is": true, "As": true, "Unwrap": true,
	"Format": true, "GoString": true, "Read": true, "Write": true,
	"WriteString": true, "Close": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Int63": true, "Seed": true,
	"Uint64": true, "ServeHTTP": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "GobEncode": true,
	"GobDecode": true, "Set": true,
}

// srcFile is one parsed Go file of the repository.
type srcFile struct {
	pkg  string // import path of the file's package
	test bool   // a _test.go file
	f    *ast.File
}

// parseRepo parses every .go file under the repository root, skipping the
// directories the go tool ignores. perfbench/ is a module of its own that
// imports internal/ packages, so it is parsed too.
func parseRepo(t *testing.T) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "xpro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, srcFile{pkg: pkg, test: strings.HasSuffix(name, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvName returns the base type name of a method's receiver.
func recvName(fd *ast.FuncDecl) string {
	x := fd.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	return x.(*ast.Ident).Name
}

// exportDecl is one exported top-level declaration of an internal/ package.
type exportDecl struct {
	key        string // package path under internal/, receiver type, name
	ref        string // what a use names: pkg.Name, or the method name
	method     bool
	file       *ast.File
	start, end token.Pos
}

// use is one place a non-test file names something.
type use struct {
	file *ast.File
	pos  token.Pos
}

func (d exportDecl) usedOutside(uses []use) bool {
	for _, u := range uses {
		if u.file != d.file || u.pos < d.start || u.pos >= d.end {
			return true
		}
	}
	return false
}

// internalExports lists the exported funcs, methods, types, vars and consts
// of every non-test file under internal/.
func internalExports(files []srcFile) []exportDecl {
	var out []exportDecl
	for _, sf := range files {
		rel, ok := strings.CutPrefix(sf.pkg, "xpro/internal/")
		if !ok || sf.test {
			continue
		}
		add := func(key, ref string, method bool, n ast.Node) {
			out = append(out, exportDecl{key: rel + "." + key, ref: ref, method: method, file: sf.f, start: n.Pos(), end: n.End()})
		}
		for _, decl := range sf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name.Name, sf.pkg+"."+d.Name.Name, false, d)
				} else {
					add(recvName(d)+"."+d.Name.Name, d.Name.Name, true, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name.Name, sf.pkg+"."+s.Name.Name, false, s)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(n.Name, sf.pkg+"."+n.Name, false, s)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// nonTestUses indexes what every non-test file names: pkg.Name for an
// identifier of its own package or a selector through one of its imports,
// and the bare name for any other selector, which may be a method call.
// Receiver types are not uses, so a type is not kept alive by its methods.
func nonTestUses(files []srcFile) map[string][]use {
	uses := map[string][]use{}
	for _, sf := range files {
		if sf.test {
			continue
		}
		imports := map[string]string{}
		for _, is := range sf.f.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = path
		}
		f := sf.f
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.FuncDecl:
				// The name declares and the receiver is not a use.
				ast.Inspect(x.Type, visit)
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.Field:
				ast.Inspect(x.Type, visit)
				return false
			case *ast.TypeSpec:
				if x.TypeParams != nil {
					ast.Inspect(x.TypeParams, visit)
				}
				ast.Inspect(x.Type, visit)
				return false
			case *ast.ValueSpec:
				if x.Type != nil {
					ast.Inspect(x.Type, visit)
				}
				for _, v := range x.Values {
					ast.Inspect(v, visit)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if path, ok := imports[id.Name]; ok {
						uses[path+"."+x.Sel.Name] = append(uses[path+"."+x.Sel.Name], use{f, x.Pos()})
						return false
					}
				}
				uses[x.Sel.Name] = append(uses[x.Sel.Name], use{f, x.Sel.Pos()})
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				k := sf.pkg + "." + x.Name
				uses[k] = append(uses[k], use{f, x.Pos()})
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	return uses
}

// TestInternalExportsHaveCallers fails on every exported internal/
// declaration that no non-test file names and that exportAllow does not
// list, and on every exportAllow entry that now has a non-test caller or is
// gone. Methods match by name through any selector, so a shared method name
// reads as a caller: the test finds a lower bound on dead code, never more.
func TestInternalExportsHaveCallers(t *testing.T) {
	files := parseRepo(t)
	uses := nonTestUses(files)
	seen := map[string]bool{}
	decls := internalExports(files)
	for _, d := range decls {
		seen[d.key] = true
		called := d.usedOutside(uses[d.ref]) || (d.method && stdlibMethods[d.ref])
		_, allowed := exportAllow[d.key]
		switch {
		case called && allowed:
			t.Errorf("internal/%s has a non-test caller now: drop it from exportAllow", d.key)
		case !called && !allowed:
			t.Errorf("internal/%s is exported but no non-test code calls it: delete it, or move it into a _test.go file", d.key)
		}
	}
	for key := range exportAllow {
		if !seen[key] {
			t.Errorf("exportAllow lists internal/%s, which no longer exists", key)
		}
	}
	t.Logf("%d exported internal/ declarations, %d allow-listed", len(decls), len(exportAllow))
}

// rootAPI lists the root package's exported declarations, one per line:
// funcs and methods with their signatures, types with their kind, vars and
// consts by name, sorted so that each type's methods follow it.
func rootAPI(t *testing.T) []byte {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	type line struct{ key, text string }
	var lines []line
	oneLine := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := oneLine(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type})
				if d.Recv == nil {
					lines = append(lines, line{d.Name.Name, sig})
				} else if r := recvName(d); token.IsExported(r) {
					lines = append(lines, line{r + "." + d.Name.Name, "    " + sig})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						kind := ""
						switch s.Type.(type) {
						case *ast.StructType:
							kind = "struct"
						case *ast.InterfaceType:
							kind = "interface"
						default:
							kind = oneLine(s.Type)
						}
						if s.Assign.IsValid() {
							kind = "= " + kind
						}
						lines = append(lines, line{s.Name.Name, "type " + s.Name.Name + " " + kind})
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								lines = append(lines, line{n.Name, d.Tok.String() + " " + n.Name})
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].key < lines[j].key })
	var b bytes.Buffer
	for _, l := range lines {
		fmt.Fprintln(&b, l.text)
	}
	return b.Bytes()
}

// TestRootAPIGolden compares the root package's exported declarations with
// testdata/root_api.golden. The golden may only shrink unless a change says
// why it grows; rewrite it with -update-root-api.
func TestRootAPIGolden(t *testing.T) {
	const golden = "testdata/root_api.golden"
	got := rootAPI(t)
	if *updateRootAPI {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(string(got), "\n") {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("root API gained: %s", strings.TrimSpace(l))
		}
	}
	for l := range wantSet {
		if !gotSet[l] {
			t.Errorf("root API lost: %s", strings.TrimSpace(l))
		}
	}
	t.Errorf("the root API differs from %s; if the change is meant, rerun with -update-root-api", golden)
}
