package freerider_test

// Dead-export guards over the program: the non-test files of this module
// and of the separate perfbench module, type-checked with go/types as the
// host would build them. TestNoUncalledExports keeps every exported
// function, method and type under internal/ in use by some program, not
// only by tests; TestNoUnreadFields does the same for struct fields, and
// TestNoUnsetFields keeps every such field written by some program.

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
	"strings"
	"testing"
)

// exportAllowlist names exported functions, methods and types that no
// program uses but that stay in production code, each with its reason.
// Keys are "pkg.Name" or "pkg.Type.Method", pkg being the path below
// internal/.
var exportAllowlist = map[string]string{
	"simd.SetEnabled":              "test dispatch control: tests toggle the asm kernels off to compare them with the Go twins",
	"simd.HWMode":                  "test dispatch control: restores the hardware dispatch mode after SetEnabled",
	"signal.Signal.Spectrum":       "fixture shared by the spectral tests of several packages",
	"signal.Signal.PhaseShift":     "channel fixture used by the tests of six packages",
	"signal.Signal.DelaySamples":   "channel fixture used by the tests of six packages",
	"signal.Signal.FrequencyShift": "CFO-injection fixture used by the tests of five packages",
	"bits.Repeat":                  "redundancy fixture used by the tests of six packages",
}

// dynamicMethods are the methods the standard library finds by type
// assertion or reflection on a value it was handed as any (fmt, errors,
// encoding/json, encoding): no program converts to an interface that
// declares them, yet they run.
var dynamicMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Unwrap": true, "Is": true, "As": true,
}

// loadProgram type-checks every package of the program.
func loadProgram(t *testing.T) *progLoader {
	t.Helper()
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
	return l
}

// TestNoUncalledExports: every exported function, method and type
// declared under internal/ must be used by some program. A use is
// counted by type, not by name:
//   - a function when a program refers to it;
//   - a type when a program names it;
//   - a method when a program selects it on its own receiver type (or on
//     a type embedding it), or converts a value of that type to an
//     interface type or type-parameter constraint that declares the
//     method, or when it is one of dynamicMethods.
//
// A declaration naming itself — a recursive call, a type's own methods
// and their receivers — is not a use.
func TestNoUncalledExports(t *testing.T) {
	l := loadProgram(t)
	used := map[types.Object]bool{}
	for _, f := range l.files {
		for _, decl := range f.Decls {
			// self holds what the declaration declares: its function or
			// method and a method's receiver type, or its types.
			var self []types.Object
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := l.info.Defs[d.Name].(*types.Func)
				self = append(self, fn)
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					self = append(self, namedOf(recv.Type()).Obj())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						self = append(self, l.info.Defs[ts.Name])
					}
				}
			}
			isSelf := func(obj types.Object) bool {
				for _, s := range self {
					if s == obj {
						return true
					}
				}
				return false
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					switch obj := l.info.Uses[n].(type) {
					case *types.Func:
						if !isSelf(obj.Origin()) {
							used[obj.Origin()] = true
						}
					case *types.TypeName:
						if !isSelf(obj) {
							used[obj] = true
						}
					}
				case *ast.SelectorExpr:
					if sel, ok := l.info.Selections[n]; ok && sel.Kind() != types.FieldVal {
						if fn := sel.Obj().(*types.Func).Origin(); !isSelf(fn) {
							used[fn] = true
						}
					}
				}
				return true
			})
		}
	}
	// Interface conversions and constraint satisfaction.
	implement := func(concrete, iface types.Type) {
		it, ok := iface.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(concrete, true, m.Pkg(), m.Name()); obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}
	r := newFieldReads(l.info)
	for _, f := range l.files {
		r.walk(f)
	}
	for _, c := range r.converts {
		implement(c[0], c[1])
	}
	for id, inst := range l.info.Instances {
		var tps *types.TypeParamList
		switch obj := l.info.Uses[id].(type) {
		case *types.Func:
			tps = obj.Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok {
				tps = named.TypeParams()
			}
		}
		for i := 0; i < tps.Len() && i < inst.TypeArgs.Len(); i++ {
			implement(inst.TypeArgs.At(i), tps.At(i).Constraint())
		}
	}

	unused := map[string]bool{}
	var dead []string
	report := func(key string, obj types.Object) {
		unused[key] = true
		if _, ok := exportAllowlist[key]; !ok {
			dead = append(dead, l.fset.Position(obj.Pos()).String()+": "+key)
		}
	}
	for path, pkg := range l.pkgs {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok || pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					report(rel+"."+name, obj)
				}
			case *types.TypeName:
				if obj.Exported() && !used[obj] {
					report(rel+"."+name, obj)
				}
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !dynamicMethods[m.Name()] {
						report(rel+"."+name+"."+m.Name(), m)
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported but used by no program; delete it, move it into the test that uses it, or allowlist it with a reason", d)
	}
	for key, reason := range exportAllowlist {
		if !unused[key] {
			t.Errorf("allowlist entry %s is used by a program or no longer exists; drop the entry", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
}

// namedOf returns the named type of a method receiver, through a pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
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
	l := loadProgram(t)
	r := newFieldReads(l.info)
	for _, f := range l.files {
		r.walk(f)
	}
	root := l.pkgs["repro"].Scope()
	for _, name := range root.Names() {
		if obj := root.Lookup(name); obj.Exported() {
			r.reach(obj.Type(), readAPI)
		}
	}
	r.instantiate()
	checkFields(t, l, r.read, fieldAllowlist, "read")
}

// unsetAllowlist names exported struct fields under internal/ that no
// program writes but that stay, each with its reason. Keys are
// "pkg.Type.Field", pkg being the path below internal/.
var unsetAllowlist = map[string]string{
	"channel.Link.Multipath": "EXPERIMENTS.md validation row `TestWiFiBackscatterSurvivesMultipath`",
	"channel.Tap.Delay":      "EXPERIMENTS.md validation row `TestWiFiBackscatterSurvivesMultipath`",
	"channel.Tap.GainDB":     "EXPERIMENTS.md validation row `TestWiFiBackscatterSurvivesMultipath`",
}

// TestNoUnsetFields is the write twin of TestNoUnreadFields: every
// exported field of a struct type declared under internal/ must be
// written by some program, or it is an option only tests set and its
// zero value is a constant. A field counts as written when a program
//   - assigns it (=, op=) or increments or decrements it;
//   - names it in a keyed or positional composite literal;
//   - takes its address, or calls a pointer-receiver method on it; or
//   - its struct type is reachable from a value converted to the empty
//     interface, which is how encoding/json fills request types.
//
// The rule over-approximates writes, so a field it reports is unset.
func TestNoUnsetFields(t *testing.T) {
	l := loadProgram(t)
	r := newFieldReads(l.info)
	for _, f := range l.files {
		r.walk(f)
	}
	r.instantiate()
	checkFields(t, l, r.written, unsetAllowlist, "written")
}

// checkFields fails for each exported field of a struct type declared
// under internal/ that is not in done and not allowlisted, and for each
// allowlist entry that names a field in done, names no field or has no
// reason.
func checkFields(t *testing.T, l *progLoader, done map[*types.Var]bool, allow map[string]string, verb string) {
	t.Helper()
	missing := map[string]bool{}
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
				if !f.Exported() || done[f] {
					continue
				}
				key := rel + "." + name + "." + f.Name()
				missing[key] = true
				if _, ok := allow[key]; !ok {
					dead = append(dead, l.fset.Position(f.Pos()).String()+": "+key)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported field %s by no program; delete it or make it a constant, or allowlist it with a reason", d, verb)
	}
	for key, reason := range allow {
		if !missing[key] {
			t.Errorf("allowlist entry %s is %s by a program or no longer exists; drop the entry", key, verb)
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

// reachMode is what reach marks on the fields it walks.
type reachMode int

const (
	readData reachMode = iota // read, as data reflection can read
	readAPI                   // read, as library API: also through signatures
	written                   // written, as data reflection can fill
)

// reachKey is a type reach has walked in one mode.
type reachKey struct {
	t types.Type
	m reachMode
}

// paramKey is a type parameter whose values a program converts to an
// interface: to any interface (readData) or to the empty one (written).
type paramKey struct {
	tp *types.TypeParam
	m  reachMode
}

// fieldReads accumulates the struct fields programs read and write, and
// the interface conversions that read them.
type fieldReads struct {
	info    *types.Info
	read    map[*types.Var]bool
	written map[*types.Var]bool
	seen    map[reachKey]bool
	// converts lists each {concrete, interface} type pair a program
	// converts a value between.
	converts [][2]types.Type
	// params are the type parameters whose values a program converts to
	// an interface; recv maps a method's receiver type parameters to its
	// type's.
	params map[paramKey]bool
	recv   map[*types.TypeParam]*types.TypeParam
}

func newFieldReads(info *types.Info) *fieldReads {
	r := &fieldReads{
		info:    info,
		read:    map[*types.Var]bool{},
		written: map[*types.Var]bool{},
		seen:    map[reachKey]bool{},
		params:  map[paramKey]bool{},
		recv:    map[*types.TypeParam]*types.TypeParam{},
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

// reach marks every field of every struct type reachable from t as read
// or, in mode written, as written: through pointers, containers, type
// arguments and struct fields, and in mode readAPI also through function
// signatures and interface methods. Methods of named types are not
// followed: a method is a name of the package that declares it, so what
// it returns is read only where a program reads it.
func (r *fieldReads) reach(t types.Type, m reachMode) {
	if t == nil || r.seen[reachKey{t, m}] {
		return
	}
	r.seen[reachKey{t, m}] = true
	api := m == readAPI
	switch t := t.(type) {
	case *types.Alias:
		r.reach(types.Unalias(t), m)
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.reach(t.TypeArgs().At(i), m)
		}
		r.reach(t.Underlying(), m)
	case *types.Pointer:
		r.reach(t.Elem(), m)
	case *types.Slice:
		r.reach(t.Elem(), m)
	case *types.Array:
		r.reach(t.Elem(), m)
	case *types.Chan:
		r.reach(t.Elem(), m)
	case *types.Map:
		r.reach(t.Key(), m)
		r.reach(t.Elem(), m)
	case *types.Struct:
		marks := r.read
		if m == written {
			marks = r.written
		}
		for i := 0; i < t.NumFields(); i++ {
			marks[t.Field(i).Origin()] = true
			r.reach(t.Field(i).Type(), m)
		}
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.reach(t.At(i).Type(), m)
		}
	case *types.Signature:
		if api {
			r.reach(t.Params(), m)
			r.reach(t.Results(), m)
		}
	case *types.Interface:
		for i := 0; api && i < t.NumMethods(); i++ {
			r.reach(t.Method(i).Type(), m)
		}
	case *types.TypeParam:
		if tp, ok := r.recv[t]; ok {
			t = tp
		}
		if m == readAPI {
			m = readData
		}
		r.params[paramKey{t, m}] = true
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
// read, and converted to the empty interface data it can also fill.
func (r *fieldReads) flow(to, from types.Type) {
	if to != nil && from != nil && isInterface(to) && !isInterface(from) {
		r.reach(from, readData)
		if to.Underlying().(*types.Interface).Empty() {
			r.reach(from, written)
		}
		r.converts = append(r.converts, [2]types.Type{from, to})
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

// walk records the field selections and field writes of f and every
// place it converts a value to an interface, compares structs or keys a
// map by one.
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
				r.pointerCall(sel, n.X)
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				r.write(e)
			}
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
		case *ast.IncDecStmt:
			r.write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.write(n.X)
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
				r.reach(k, readData)
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

// write marks the field e selects, if it selects one, as written.
func (r *fieldReads) write(e ast.Expr) {
	if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if sel, ok := r.info.Selections[s]; ok && sel.Kind() == types.FieldVal {
			r.written[sel.Obj().(*types.Var).Origin()] = true
		}
	}
}

// pointerCall marks x written when sel selects a pointer-receiver method
// on it and x is not itself a pointer: the call takes x's address.
func (r *fieldReads) pointerCall(sel *types.Selection, x ast.Expr) {
	if sel.Kind() != types.MethodVal {
		return
	}
	recv := sel.Obj().Type().(*types.Signature).Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		return
	}
	if _, ok := r.info.TypeOf(x).Underlying().(*types.Pointer); !ok {
		r.write(x)
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
			r.reach(t, readData)
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

// composite records the fields a composite literal names, and the
// interface conversions of its elements into its field, element, key and
// value types.
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
					r.written[f.Origin()] = true
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
	done := map[reachKey]bool{}
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
				for _, m := range []reachMode{readData, written} {
					k := reachKey{inst.TypeArgs.At(i), m}
					if r.params[paramKey{tps.At(i), m}] && !done[k] {
						done[k] = true
						changed = true
						r.reach(k.t, m)
					}
				}
			}
		}
	}
}
