package asap_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// unreachedReason is the fixed vocabulary of docs/unreached.txt reasons.
var unreachedReason = regexp.MustCompile(`^(public API|benchmark|fault path|model path|interface|debug aid): (\S.*)$`)

// TestUnreachedListWellFormed checks docs/unreached.txt, the allowlist of
// the reachability gate (scripts/reach.sh). The gate only sees functions
// newly at 0.0 %, so this test is what catches a stale entry: the list is
// sorted without duplicates, every reason comes from the vocabulary, every
// entry names a function of the module, every "public API" reason names an
// Example, every "fault path" reason a test, and every "benchmark" reason a
// bench/ file that mentions the function.
func TestUnreachedListWellFormed(t *testing.T) {
	funcs := map[string]bool{} // "import/path Func" and "import/path Type.Method"
	tests := map[string]bool{} // Test and Example function names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "bench" || name == "reach" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Join("asap", filepath.Dir(path)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if strings.HasSuffix(name, "_test.go") {
				tests[fn.Name.Name] = true
				continue
			}
			key := fn.Name.Name
			if fn.Recv != nil {
				key = receiverType(fn.Recv.List[0].Type) + "." + key
			}
			funcs[pkg+" "+key] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	file, err := os.Open("docs/unreached.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	prev, n := "", 0
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		n++
		fields := strings.SplitN(text, " ", 3)
		if len(fields) != 3 {
			t.Errorf("line %d: want <import path> <function> <reason>: %q", line, text)
			continue
		}
		key := fields[0] + " " + fields[1]
		if key <= prev {
			t.Errorf("line %d: %q is out of order or a duplicate (after %q)", line, key, prev)
		}
		prev = key
		if !funcs[key] {
			t.Errorf("line %d: no function %s in the module", line, key)
		}
		m := unreachedReason.FindStringSubmatch(fields[2])
		if m == nil {
			t.Errorf("line %d: reason %q is not in the vocabulary", line, fields[2])
			continue
		}
		kind, arg := m[1], m[2]
		switch kind {
		case "public API":
			if !strings.HasPrefix(arg, "Example") || !tests[arg] {
				t.Errorf("line %d: no Example function %s", line, arg)
			}
		case "fault path":
			if !strings.HasPrefix(arg, "Test") || !tests[arg] {
				t.Errorf("line %d: no test %s", line, arg)
			}
		case "benchmark":
			ident := fields[1][strings.LastIndexByte(fields[1], '.')+1:]
			src, err := os.ReadFile(arg)
			if !strings.HasPrefix(arg, "bench/") || err != nil || !strings.Contains(string(src), ident) {
				t.Errorf("line %d: %s is not a bench/ file that mentions %s", line, arg, ident)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("docs/unreached.txt lists no function")
	}
}

// receiverType names a method's receiver type without pointer or type
// parameters: (s *Set[K]) gives "Set".
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
