package spider_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that may
// have no production reader, each with its reason. An entry fails
// TestExportedSurfaceHasReaders once its identifier is gone or gains a
// production reader, so the list can only shrink.
var surfaceAllowlist = map[string]string{
	"fleet.(*JobError).Unwrap":   "errors.Is/As",
	"sim.(*Engine).RunAll":       "shared test helper: tests of backhaul, dhcp, phy and sim call it",
	"sim.(*Ticker).WakeAt":       "shared test helper: tests of lmm call it",
	"sim.(*RNG).Perm":            "shared test helper: tests of phy and sim call it",
	"ipam.MustNew":               "shared test helper: tests of ap, dhcp, driver, ipam and lmm call it",
	"obs.NewManual":              "shared test helper: tests of experiments and obs call it",
	"obs.(*Recorder).HeldBytes":  "shared test helper: tests of experiments and obs call it",
	"ap.(*AP).Close":             "shared test helper: tests of ap, driver and lmm call it",
	"ap.(*AP).StationState":      "shared test helper: tests of ap and driver call it",
	"dhcp.(*Server).LeasesInUse": "shared test helper: tests of ap and dhcp call it",
	"dot11.DecodeBeaconBody":     "shared test helper: tests of ap and dot11 call it",
}

// TestExportedSurfaceHasReaders type-checks the repository and fails on
// any exported identifier declared in a non-test file under internal/ that
// no non-test file of this module or of perfbench/ references, unless a
// rule or surfaceAllowlist exempts it. Exempt by rule are a method whose
// name belongs to an interface its receiver (or a pointer to it)
// satisfies, and a struct field with a json tag. The root package is the
// public API and is not scanned.
func TestExportedSurfaceHasReaders(t *testing.T) {
	s, err := loadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.typeErrs) > 0 {
		n := min(len(s.typeErrs), 10)
		t.Fatalf("%d type errors, first %d:\n%v", len(s.typeErrs), n, errors.Join(s.typeErrs[:n]...))
	}
	seen := map[string]bool{}
	for _, sub := range s.subjects {
		name, c := sub.name, s.refs[sub.obj.Pos()]
		if _, ok := surfaceAllowlist[name]; ok {
			seen[name] = true
			switch {
			case c.prod > 0:
				t.Errorf("%s (%s) is allowlisted but has %d production reference(s): drop its entry", name, s.pos(sub.obj), c.prod)
			case sub.exempt:
				t.Errorf("%s (%s) is allowlisted but exempt by rule: drop its entry", name, s.pos(sub.obj))
			}
			continue
		}
		if c.prod == 0 && !sub.exempt {
			t.Errorf("%s (%s) has no production reader: own-package tests %d, other tests %d, production 0; delete it, or let the tests read what it returns",
				name, s.pos(sub.obj), c.own, c.other)
		}
	}
	for name := range surfaceAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s names no exported identifier under internal/: drop it", name)
		}
	}
}

// surface is the repository type-checked from source. Every package is
// checked once on its own (what its importers see), once with its
// in-package tests, and its external tests once against the plain
// packages. All checks share one parse of each file, so an object's
// position identifies its declaration across them.
type surface struct {
	root     string
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*build.Package // by import path
	plain    map[string]*types.Package
	parsed   map[string]*ast.File
	typeErrs []error
	refs     map[token.Pos]refCount
	ifaces   []*types.Interface
	subjects []subject
}

type refCount struct{ own, other, prod int }

type subject struct {
	name   string
	obj    types.Object
	exempt bool
}

func loadSurface(root string) (*surface, error) {
	s := &surface{
		root:   root,
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*build.Package{},
		plain:  map[string]*types.Package{},
		parsed: map[string]*ast.File{},
		refs:   map[token.Pos]refCount{},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path := "spider"
		if dir != root {
			path += "/" + filepath.ToSlash(dir)
		}
		if path == "spider/perfbench" {
			// A reader only: its own tests are not scanned.
			bp.TestGoFiles, bp.XTestGoFiles = nil, nil
		}
		s.pkgs[path] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		bp := s.pkgs[path]
		if len(bp.TestGoFiles) > 0 {
			if _, err := s.check(path, bp, append(bp.GoFiles[:len(bp.GoFiles):len(bp.GoFiles)], bp.TestGoFiles...), true); err != nil {
				return nil, err
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			if _, err := s.check(path+"_test", bp, bp.XTestGoFiles, true); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler"} {
		i := strings.LastIndex(name, ".")
		pkg, err := s.std.Import(name[:i])
		if err != nil {
			return nil, err
		}
		s.ifaces = append(s.ifaces, pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Interface))
	}
	s.ifaces = append(s.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, path := range paths {
		if strings.HasPrefix(path, "spider/internal/") {
			s.collectSubjects(s.plain[path])
		}
	}
	return s, nil
}

// Import resolves spider/... to the repository's directories and
// everything else to the standard library's export data.
func (s *surface) Import(path string) (*types.Package, error) {
	if pkg, ok := s.plain[path]; ok {
		return pkg, nil
	}
	bp, ok := s.pkgs[path]
	if !ok {
		return s.std.Import(path)
	}
	pkg, err := s.check(path, bp, bp.GoFiles, false)
	s.plain[path] = pkg
	return pkg, err
}

// check type-checks the named files of bp's directory as package path. A
// plain check counts every reference its files make and notes the
// interfaces they declare; a check with tests counts only the references
// its test files make, as the plain check counted the rest.
func (s *surface) check(path string, bp *build.Package, names []string, tests bool) (*types.Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		fn := filepath.Join(bp.Dir, name)
		f, ok := s.parsed[fn]
		if !ok {
			var err error
			if f, err = parser.ParseFile(s.fset, fn, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			s.parsed[fn] = f
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: s, Error: func(err error) { s.typeErrs = append(s.typeErrs, err) }}
	pkg, _ := conf.Check(path, s.fset, files, info)
	for id, obj := range info.Uses {
		s.count(bp.Dir, id.Pos(), obj, tests)
	}
	for sel, x := range info.Selections {
		// A promoted field or method also reads each embedded field on its
		// path.
		t := x.Recv()
		for _, i := range x.Index()[:len(x.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			s.count(bp.Dir, sel.Sel.Pos(), st.Field(i), tests)
			t = st.Field(i).Type()
		}
	}
	if !tests {
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					s.ifaces = append(s.ifaces, it)
				}
			}
		}
	}
	return pkg, nil
}

// count files one reference to obj, made at pos in a file of dir, unless
// that file is a test file and tests is false, or the other way round.
func (s *surface) count(dir string, pos token.Pos, obj types.Object, tests bool) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "spider/") {
		return
	}
	if strings.HasSuffix(s.fset.File(pos).Name(), "_test.go") != tests {
		return
	}
	c := s.refs[obj.Pos()]
	switch {
	case !tests:
		c.prod++
	case filepath.Dir(s.fset.File(obj.Pos()).Name()) == dir:
		c.own++
	default:
		c.other++
	}
	s.refs[obj.Pos()] = c
}

// collectSubjects lists pkg's exported funcs, types, vars and consts, and
// the exported methods and fields of its exported types.
func (s *surface) collectSubjects(pkg *types.Package) {
	prefix := strings.TrimPrefix(pkg.Path(), "spider/internal/") + "."
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			s.subjects = append(s.subjects, subject{name: prefix + name, obj: obj})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || !tn.Exported() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !m.Exported() {
				continue
			}
			recv := name
			if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				recv = "(*" + name + ")"
			}
			s.subjects = append(s.subjects, subject{name: prefix + recv + "." + m.Name(), obj: m, exempt: s.satisfies(named, m.Name())})
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
					s.subjects = append(s.subjects, subject{name: prefix + name + "." + f.Name(), obj: f, exempt: tagged})
				}
			}
		}
	}
}

// satisfies reports whether named, or a pointer to it, implements an
// interface that has a method called method.
func (s *surface) satisfies(named *types.Named, method string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range s.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

func (s *surface) pos(obj types.Object) string {
	p := s.fset.Position(obj.Pos())
	rel, err := filepath.Rel(s.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}
