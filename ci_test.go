package xpro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectorsMatch reads the CI workflow and fails on every
// alternative of a `go test` -run, -bench or -fuzz pattern that names
// no function in the packages its line tests: go test passes silently
// when part of a selector matches nothing, so a renamed test would
// drop out of its CI step unnoticed. -run alternatives must match a
// Test, Example or Fuzz function, -bench ones a Benchmark and -fuzz
// ones a Fuzz function. `-run -` and `-run '^$'` select nothing on
// purpose.
func TestCISelectorsMatch(t *testing.T) {
	f, err := os.Open(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcs := map[string][]string{} // package dir → its test functions
	checked := 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		args := shellWords(sc.Text())
		i := indexPair(args, "go", "test")
		if i < 0 {
			continue
		}
		sel, pkgs := testSelectors(args[i+2:])
		for flag, pattern := range sel {
			if flag == "-run" && (pattern == "-" || pattern == "^$") {
				continue
			}
			var names []string
			for _, p := range pkgs {
				dir := filepath.Clean(p)
				if _, ok := funcs[dir]; !ok {
					funcs[dir] = testFuncs(t, dir)
				}
				names = append(names, funcs[dir]...)
			}
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s alternative %q: %v", n, flag, alt, err)
					continue
				}
				checked++
				if !matchesKind(re, flag, names) {
					t.Errorf("ci.yml:%d: %s alternative %q matches no function in %v", n, flag, alt, pkgs)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("found no go test selector in ci.yml")
	}
}

// shellWords splits a workflow line into words, honouring single and
// double quotes; a `#` outside quotes starts a comment.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	inWord, quote := false, rune(0)
	for _, c := range line {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				w.WriteRune(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == '#' && !inWord:
			return words
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteRune(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

func indexPair(args []string, a, b string) int {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == a && args[i+1] == b {
			return i
		}
	}
	return -1
}

// testSelectors reads the flags after `go test` up to the end of the
// command: the -run, -bench and -fuzz patterns and the packages.
func testSelectors(args []string) (map[string]string, []string) {
	valued := map[string]bool{"-run": true, "-bench": true, "-fuzz": true, "-cpu": true, "-count": true,
		"-benchtime": true, "-fuzztime": true, "-timeout": true, "-parallel": true}
	sel := map[string]string{}
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "|" || a == "&&" || a == ";" || a == ">" {
			break
		}
		name, value, hasValue := strings.Cut(a, "=")
		switch {
		case !strings.HasPrefix(a, "-"):
			pkgs = append(pkgs, a)
			continue
		case valued[name] && !hasValue && i+1 < len(args):
			i++
			value = args[i]
		}
		if name == "-run" || name == "-bench" || name == "-fuzz" {
			sel[name] = value
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return sel, pkgs
}

// alternatives splits a selector's top-level pattern (go test matches
// subtests after a slash) at the top-level | into its alternatives.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == '|' && depth == 0:
			out = append(out, pattern[start:i])
			start = i + 1
		case c == '/' && depth == 0:
			return append(out, pattern[start:i])
		}
	}
	return append(out, pattern[start:])
}

func matchesKind(re *regexp.Regexp, flag string, names []string) bool {
	for _, name := range names {
		var kind bool
		switch flag {
		case "-run":
			kind = strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Example") || strings.HasPrefix(name, "Fuzz")
		case "-bench":
			kind = strings.HasPrefix(name, "Benchmark")
		case "-fuzz":
			kind = strings.HasPrefix(name, "Fuzz")
		}
		if kind && re.MatchString(name) {
			return true
		}
	}
	return false
}

// testFuncs lists the top-level functions of dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("ci.yml names package %s, which does not exist", dir)
		}
	}
	var names []string
	fset := token.NewFileSet()
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}
