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
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// fieldAllowlist names exported struct fields under internal/ that no
// program reads but that stay, each with its reason. Keys are
// "pkg.Type.Field", pkg being the path below internal/.
var fieldAllowlist = map[string]string{
	"wifi.Receiver.SkipRSSI": "perfbench/replay.go sets it, and the benchmark's sources change only with a re-recorded benchmark; it has no effect",
}

// TestNoUnreadFields is the field twin of TestNoUncalledExports: every
// exported field of a struct type declared under internal/ must be read by
// some program. The non-test files of this module and of perfbench are
// type-checked with go/types as the host would build them (go/build's
// default context), standard-library imports coming from go/importer. A
// field counts as read when
//   - a program selects it anywhere but as the left operand of =;
//   - its struct type is reachable from an exported name of the root
//     package, which is library API; or
//   - its struct type is reachable from a value a program converts to an
//     interface type (json, fmt and reflection read every field they are
//     handed), or is compared with == or hashed as a map key.
//
// The rule over-approximates reads, so a field it reports is unread.
func TestNoUnreadFields(t *testing.T) {
	l := &progLoader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		imp := "repro"
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		_, err = l.Import(imp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	r := newFieldReads(l.info)
	for _, f := range l.files {
		r.walk(f)
	}
	root := l.pkgs["repro"].Scope()
	for _, name := range root.Names() {
		if obj := root.Lookup(name); obj.Exported() {
			r.reach(obj.Type(), true)
		}
	}
	r.instantiate()

	unread := map[string]bool{}
	var dead []string
	for path, pkg := range l.pkgs {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok || pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || r.read[f] {
					continue
				}
				key := rel + "." + name + "." + f.Name()
				unread[key] = true
				if _, ok := fieldAllowlist[key]; !ok {
					dead = append(dead, l.fset.Position(f.Pos()).String()+": "+key)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported field read by no program; delete it with what only feeds it, or allowlist it with a reason", d)
	}
	for key, reason := range fieldAllowlist {
		if !unread[key] {
			t.Errorf("allowlist entry %s is read by a program or no longer exists; drop the entry", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
}

// progLoader is a types.Importer that type-checks packages of this module
// (perfbench included) from their non-test sources and delegates every
// other import to std.
type progLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package // nil for a directory with no Go files
	files []*ast.File
}

func (l *progLoader) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "repro/")
	if path == "repro" {
		dir, ok = ".", true
	}
	if !ok {
		return l.std.Import(path)
	}
	if pkg, done := l.pkgs[path]; done {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if err != nil && !errors.As(err, &noGo) {
		return nil, err
	}
	var pkg *types.Package
	if len(bp.GoFiles) > 0 {
		files := make([]*ast.File, len(bp.GoFiles))
		for i, name := range bp.GoFiles {
			if files[i], err = parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
		}
		conf := types.Config{Importer: l}
		if pkg, err = conf.Check(path, l.fset, files, l.info); err != nil {
			return nil, err
		}
		l.files = append(l.files, files...)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// reachKey is a type reach has walked, as data or as API.
type reachKey struct {
	t   types.Type
	api bool
}

// fieldReads accumulates the struct fields programs read.
type fieldReads struct {
	info *types.Info
	read map[*types.Var]bool
	seen map[reachKey]bool
	// params are the type parameters whose values a program converts to
	// an interface; recv maps a method's receiver type parameters to its
	// type's.
	params map[*types.TypeParam]bool
	recv   map[*types.TypeParam]*types.TypeParam
}

func newFieldReads(info *types.Info) *fieldReads {
	r := &fieldReads{
		info:   info,
		read:   map[*types.Var]bool{},
		seen:   map[reachKey]bool{},
		params: map[*types.TypeParam]bool{},
		recv:   map[*types.TypeParam]*types.TypeParam{},
	}
	for _, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if rtp := sig.RecvTypeParams(); rtp != nil {
			base := sig.Recv().Type()
			if p, ok := base.(*types.Pointer); ok {
				base = p.Elem()
			}
			tps := base.(*types.Named).Origin().TypeParams()
			for i := 0; i < rtp.Len(); i++ {
				r.recv[rtp.At(i)] = tps.At(i)
			}
		}
	}
	return r
}

// reach marks every field of every struct type reachable from t as read:
// through pointers, containers, type arguments and struct fields, and
// when api is set also through function signatures and interface methods.
// Methods of named types are not followed: a method is a name of the
// package that declares it, so what it returns is read only where a
// program reads it.
func (r *fieldReads) reach(t types.Type, api bool) {
	if t == nil || r.seen[reachKey{t, api}] {
		return
	}
	r.seen[reachKey{t, api}] = true
	switch t := t.(type) {
	case *types.Alias:
		r.reach(types.Unalias(t), api)
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.reach(t.TypeArgs().At(i), api)
		}
		r.reach(t.Underlying(), api)
	case *types.Pointer:
		r.reach(t.Elem(), api)
	case *types.Slice:
		r.reach(t.Elem(), api)
	case *types.Array:
		r.reach(t.Elem(), api)
	case *types.Chan:
		r.reach(t.Elem(), api)
	case *types.Map:
		r.reach(t.Key(), api)
		r.reach(t.Elem(), api)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.read[t.Field(i).Origin()] = true
			r.reach(t.Field(i).Type(), api)
		}
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.reach(t.At(i).Type(), api)
		}
	case *types.Signature:
		if api {
			r.reach(t.Params(), api)
			r.reach(t.Results(), api)
		}
	case *types.Interface:
		for i := 0; api && i < t.NumMethods(); i++ {
			r.reach(t.Method(i).Type(), api)
		}
	case *types.TypeParam:
		if tp, ok := r.recv[t]; ok {
			t = tp
		}
		r.params[t] = true
	}
}

// isInterface reports whether t is an interface type; a type parameter,
// whose underlying type is its constraint, is not.
func isInterface(t types.Type) bool {
	_, tp := types.Unalias(t).(*types.TypeParam)
	return !tp && types.IsInterface(t)
}

// flow records a value of type from stored into a slot of type to: a
// non-interface value converted to an interface is data reflection can
// read.
func (r *fieldReads) flow(to, from types.Type) {
	if to != nil && from != nil && isInterface(to) && !isInterface(from) {
		r.reach(from, false)
	}
}

// sources returns the types of the values exprs yield, spreading a single
// multi-valued call.
func (r *fieldReads) sources(exprs []ast.Expr) []types.Type {
	if len(exprs) == 1 {
		if tup, ok := r.info.TypeOf(exprs[0]).(*types.Tuple); ok {
			out := make([]types.Type, tup.Len())
			for i := range out {
				out[i] = tup.At(i).Type()
			}
			return out
		}
	}
	out := make([]types.Type, len(exprs))
	for i, e := range exprs {
		out[i] = r.info.TypeOf(e)
	}
	return out
}

// walk records the field selections of f and every place it converts a
// value to an interface, compares structs or keys a map by one.
func (r *fieldReads) walk(f *ast.File) {
	info := r.info
	assigned := map[*ast.SelectorExpr]bool{} // left operands of =
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok {
				r.selection(sel, assigned[n])
			}
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				break
			}
			src := r.sources(n.Rhs)
			for i, e := range n.Lhs {
				if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					assigned[s] = true
				}
				if i < len(src) {
					r.flow(info.TypeOf(e), src[i])
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, s := range r.sources(n.Values) {
					r.flow(info.TypeOf(n.Type), s)
				}
			}
		case *ast.ReturnStmt:
			var sig *types.Signature
			for i := len(stack) - 1; sig == nil && i >= 0; i-- {
				switch fn := stack[i].(type) {
				case *ast.FuncDecl:
					sig = info.Defs[fn.Name].Type().(*types.Signature)
				case *ast.FuncLit:
					sig = info.TypeOf(fn).(*types.Signature)
				}
			}
			for i, s := range r.sources(n.Results) {
				if i < sig.Results().Len() {
					r.flow(sig.Results().At(i).Type(), s)
				}
			}
		case *ast.CallExpr:
			r.call(n)
		case *ast.CompositeLit:
			r.composite(n)
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				r.flow(ch.Elem(), info.TypeOf(n.Value))
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				r.compare(info.TypeOf(n.X), info.TypeOf(n.Y))
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						r.compare(info.TypeOf(n.Tag), info.TypeOf(e))
					}
				}
			}
		case *ast.IndexExpr:
			if m, ok := types.Unalias(info.TypeOf(n.X)).Underlying().(*types.Map); ok {
				r.flow(m.Key(), info.TypeOf(n.Index))
			}
		case *ast.MapType:
			if k := info.TypeOf(n.Key); k != nil && !isInterface(k) {
				r.reach(k, false)
			}
		}
		return true
	})
}

// selection marks the fields sel reads: each embedded field it passes
// through, and the selected field itself unless it is being assigned.
func (r *fieldReads) selection(sel *types.Selection, assigned bool) {
	path := sel.Index()
	last := len(path) - 1
	typ := sel.Recv()
	for i, idx := range path {
		if i == last && sel.Kind() != types.FieldVal {
			return // a method
		}
		if p, ok := typ.Underlying().(*types.Pointer); ok {
			typ = p.Elem()
		}
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(idx)
		if i < last || !assigned {
			r.read[f.Origin()] = true
		}
		typ = f.Type()
	}
}

// compare records an == between values of types x and y: it converts a
// non-interface operand to the other's interface type, and compares every
// field of a struct operand.
func (r *fieldReads) compare(x, y types.Type) {
	r.flow(x, y)
	r.flow(y, x)
	for _, t := range []types.Type{x, y} {
		if t == nil || isInterface(t) {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Struct, *types.Array:
			r.reach(t, false)
		}
	}
}

// call records the interface conversions of a call's arguments: to the
// parameter types, to the type of a conversion, into panic, and into
// append's element type.
func (r *fieldReads) call(n *ast.CallExpr) {
	fun := r.info.Types[n.Fun]
	src := r.sources(n.Args)
	switch {
	case fun.IsType():
		for _, s := range src {
			r.flow(fun.Type, s)
		}
		return
	case fun.IsBuiltin():
		id, ok := ast.Unparen(n.Fun).(*ast.Ident)
		if !ok || len(src) == 0 {
			return
		}
		switch id.Name {
		case "panic":
			r.flow(types.Universe.Lookup("any").Type(), src[0])
		case "append":
			if s, ok := src[0].Underlying().(*types.Slice); ok && !n.Ellipsis.IsValid() {
				for _, a := range src[1:] {
					r.flow(s.Elem(), a)
				}
			}
		}
		return
	}
	sig, ok := fun.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, s := range src {
		var to types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			to = params.At(params.Len() - 1).Type()
			if !n.Ellipsis.IsValid() {
				to = to.Underlying().(*types.Slice).Elem()
			}
		case i < params.Len():
			to = params.At(i).Type()
		}
		r.flow(to, s)
	}
}

// composite records the interface conversions of a composite literal's
// elements into its field, element, key and value types.
func (r *fieldReads) composite(n *ast.CompositeLit) {
	t := r.info.TypeOf(n)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, e := range n.Elts {
		key, val := ast.Expr(nil), e
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			key, val = kv.Key, kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for j := 0; j < u.NumFields(); j++ {
				f := u.Field(j)
				if (key == nil && j == i) || (key != nil && key.(*ast.Ident).Name == f.Name()) {
					r.flow(f.Type(), r.info.TypeOf(val))
				}
			}
		case *types.Slice:
			r.flow(u.Elem(), r.info.TypeOf(val))
		case *types.Array:
			r.flow(u.Elem(), r.info.TypeOf(val))
		case *types.Map:
			r.flow(u.Key(), r.info.TypeOf(key))
			r.flow(u.Elem(), r.info.TypeOf(val))
		}
	}
}

// instantiate marks the type arguments bound to converted type parameters
// as converted, until no instantiation adds one.
func (r *fieldReads) instantiate() {
	done := map[types.Type]bool{}
	for changed := true; changed; {
		changed = false
		for id, inst := range r.info.Instances {
			var tps *types.TypeParamList
			switch obj := r.info.Uses[id].(type) {
			case *types.Func:
				tps = obj.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					tps = named.TypeParams()
				}
			}
			for i := 0; i < tps.Len() && i < inst.TypeArgs.Len(); i++ {
				arg := inst.TypeArgs.At(i)
				if r.params[tps.At(i)] && !done[arg] {
					done[arg] = true
					changed = true
					r.reach(arg, false)
				}
			}
		}
	}
}
