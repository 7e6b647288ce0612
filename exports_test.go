package freerider_test

// Dead-export guard: every exported function and method under internal/
// must be referenced by some program, not only by tests. The reference set
// is every non-test .go file of this module plus the separate perfbench
// module, parsed with go/parser (no type checking), so the test is cheap
// and needs nothing outside the standard library.
//
// A name counts as referenced when it appears outside its own declaration
// as pkg.Name from another package, as a bare Name inside its own package,
// or, for methods, as any .Name selector. A method whose name is a method
// of a standard-library or in-repo interface counts as used, since a call
// through the interface names no concrete type.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names exported functions that no program calls but that
// stay in production code, each with its reason. Keys are "pkg.Func" or
// "pkg.Type.Method", pkg being the path below internal/.
var exportAllowlist = map[string]string{
	"simd.SetEnabled":            "test dispatch control: tests toggle the asm kernels off to compare them with the Go twins",
	"simd.HWMode":                "test dispatch control: restores the hardware dispatch mode after SetEnabled",
	"signal.Signal.Spectrum":     "fixture shared by the spectral tests of several packages",
	"signal.Signal.PhaseShift":   "channel fixture used by the tests of six packages",
	"signal.Signal.DelaySamples": "channel fixture used by the tests of six packages",
	"bits.Repeat":                "redundancy fixture used by the tests of six packages",
}

// stdInterfaceMethods are methods of standard-library interfaces a type in
// this module may satisfy (error, fmt.Stringer, io.*, sort.Interface,
// encoding.*, http.Handler, flag.Value, heap.Interface, errors.Is/As).
var stdInterfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadFrom": true, "WriteTo": true, "WriteString": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Set": true, "Unwrap": true, "Is": true, "As": true,
}

type exportDecl struct {
	key string // "pkg.Func" or "pkg.Type.Method"
	pos token.Position
}

func TestNoUncalledExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportDecl
	used := map[string]bool{}    // "importpath.Name": function references
	methods := map[string]bool{} // "Name": selectors and interface methods
	for name := range stdInterfaceMethods {
		methods[name] = true
	}

	parseModule := func(root, module string) {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || name == "testdata" ||
					(root == "." && name == "perfbench")) {
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
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkg := module
			if rel != "." {
				pkg += "/" + filepath.ToSlash(rel)
			}
			decls = append(decls, scanFile(fset, f, pkg, used, methods)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parseModule(".", "repro")
	parseModule("perfbench", "repro/perfbench")

	var dead []string
	unused := map[string]bool{}
	for _, d := range decls {
		if unused[d.key] {
			continue // declared again in another build-tagged file
		}
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		isMethod := strings.Count(d.key, ".") == 2
		if (isMethod && methods[name]) ||
			(!isMethod && used["repro/internal/"+d.key]) {
			continue
		}
		unused[d.key] = true
		if _, ok := exportAllowlist[d.key]; !ok {
			dead = append(dead, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported but called by no program; delete it, move it into the test that uses it, or allowlist it with a reason", d)
	}
	for key, reason := range exportAllowlist {
		if !unused[key] {
			t.Errorf("allowlist entry %s is called by a program or no longer exists; drop the entry", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
}

// scanFile records in used and methods every reference file f makes, and
// returns the exported functions and methods it declares under internal/.
func scanFile(fset *token.FileSet, f *ast.File, pkg string, used, methods map[string]bool) []exportDecl {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	internal := strings.HasPrefix(pkg, "repro/internal/")
	var decls []exportDecl
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			walkRefs(decl, imports, pkg, "", "", used, methods)
			continue
		}
		// The declaration's own name, and a recursive call to it, are
		// not references.
		self, selfMethod := fd.Name.Name, ""
		if fd.Recv != nil {
			self, selfMethod = "", fd.Name.Name
			walkRefs(fd.Recv, imports, pkg, "", "", used, methods)
		}
		walkRefs(fd.Type, imports, pkg, self, selfMethod, used, methods)
		if fd.Body != nil {
			walkRefs(fd.Body, imports, pkg, self, selfMethod, used, methods)
		}
		if internal && fd.Name.IsExported() {
			key := strings.TrimPrefix(pkg, "repro/internal/") + "."
			if fd.Recv != nil {
				key += recvTypeName(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, exportDecl{key + fd.Name.Name, fset.Position(fd.Pos())})
		}
	}
	return decls
}

// walkRefs records the references under n: x.Name where x names an import
// as a function of that package, any other .Name as a method, a bare
// identifier as a name of pkg, and the methods of interface types.
func walkRefs(n ast.Node, imports map[string]string, pkg, self, selfMethod string, used, methods map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					used[path+"."+n.Sel.Name] = true
					return false
				}
			}
			if n.Sel.Name != selfMethod {
				methods[n.Sel.Name] = true
			}
			walkRefs(n.X, imports, pkg, self, selfMethod, used, methods)
			return false
		case *ast.InterfaceType:
			for _, field := range n.Methods.List {
				for _, name := range field.Names {
					methods[name.Name] = true
				}
			}
		case *ast.Ident:
			if n.Name != self {
				used[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(e ast.Expr) string {
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
			return "?"
		}
	}
}
