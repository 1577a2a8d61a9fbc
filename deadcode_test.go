package repro

// The module's dead-code check, in two halves that share one package
// listing:
//
//   - every package under internal/ is in the non-test import closure
//     of cmd/..., examples/... and benchmark: a package only its own
//     tests import is dead;
//   - every exported function or method declared in a non-test file
//     under internal/ is referenced by a non-test file of the module or
//     by a test file of another package. An export only its own
//     package's tests call is dead too; a test that needs it as an
//     instrument reaches it through the package's export_test.go.
//
// Uses are resolved by go/types over every package the module's tests
// build, test variants included, so a method is matched to its own
// receiver and not to another method of the same name. A method that
// satisfies an interface declared in the module, or one of the standard
// interfaces in implicitExports, is called through the interface and
// counts as used. There is no allowlist: a dead export is deleted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// implicitExports are the method names the standard library calls
// through its own interfaces (error, fmt.Stringer, errors.Unwrap, gob,
// io.Reader).
var implicitExports = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"GobEncode": true, "GobDecode": true, "Read": true,
}

func TestNoDeadCode(t *testing.T) {
	dead, orphans, err := auditDeadCode(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		t.Errorf("orphan package %s: no command, example or benchmark imports it", p)
	}
	for _, f := range dead {
		t.Errorf("dead export %s: no non-test file and no test of another package references it", f)
	}
}

func TestDeadCodeFixture(t *testing.T) {
	dead, orphans, err := auditDeadCode(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	wantDead := []string{
		"fixture/internal/lib.OwnTestOnly",
		"fixture/internal/lib.Unreferenced",
		"fixture/internal/orphan.Lonely",
	}
	if !reflect.DeepEqual(dead, wantDead) {
		t.Errorf("dead exports = %q, want %q", dead, wantDead)
	}
	if want := []string{"fixture/internal/orphan"}; !reflect.DeepEqual(orphans, want) {
		t.Errorf("orphan packages = %q, want %q", orphans, want)
	}
}

// listedPackage is the part of `go list -json` the audit reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	ForTest    string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
	Deps       []string
	Module     *struct{ Path string }
}

// auditDeadCode lists the module rooted at dir with its tests and
// returns its dead exports (by types.Func.FullName) and its orphan
// internal packages, each sorted.
func auditDeadCode(dir string) (dead, orphans []string, err error) {
	cmd := exec.Command("go", "list", "-test", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
		// Skip the standard library and the generated test mains.
		if p.Standard || p.Module == nil || (p.ForTest == "" && strings.HasSuffix(p.ImportPath, ".test")) {
			continue
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		return nil, nil, fmt.Errorf("go list found no packages in %s", dir)
	}
	mod := pkgs[0].Module.Path
	internal := mod + "/internal/"

	// Orphans: -deps lists the plain packages with their non-test Deps.
	reached := map[string]bool{}
	for _, p := range pkgs {
		if p.ForTest != "" || !(strings.HasPrefix(p.ImportPath, mod+"/cmd/") ||
			strings.HasPrefix(p.ImportPath, mod+"/examples/") || p.ImportPath == mod+"/benchmark") {
			continue
		}
		for _, d := range p.Deps {
			reached[d] = true
		}
	}
	for _, p := range pkgs {
		if p.ForTest == "" && strings.HasPrefix(p.ImportPath, internal) && !reached[p.ImportPath] {
			orphans = append(orphans, p.ImportPath)
		}
	}

	// Dead exports: type-check every package in dependency order (the
	// order -deps lists them in), each variant against the variants its
	// ImportMap names, and record every use of every function.
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{} // by listed ImportPath, variant suffix included
	var (
		decls  []string // exported funcs of non-test files under internal/
		live   = map[string]bool{}
		ifaces []*types.Interface // declared in the module
		named  []*types.Named     // possible receivers, declared under internal/
	)
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return std.Import(path)
		})}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		path := basePath(p.ImportPath)
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		owner := strings.TrimSuffix(path, "_test")
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			fn = fn.Origin()
			if !strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go") || fn.Pkg().Path() != owner {
				live[fn.FullName()] = true
			}
		}
		if p.ForTest != "" {
			continue // a test variant declares nothing the plain package does not
		}
		for id, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				} else if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && strings.HasPrefix(path, internal) {
					named = append(named, n)
				}
			}
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || !strings.HasPrefix(path, internal) ||
				strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go") {
				continue
			}
			if fn.Type().(*types.Signature).Recv() != nil && implicitExports[fn.Name()] {
				continue
			}
			decls = append(decls, fn.FullName())
		}
	}

	// A method that satisfies a module interface is called through it.
	for _, n := range named {
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !(types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), it.Method(i).Name()); obj != nil {
					live[obj.(*types.Func).FullName()] = true
				}
			}
		}
	}
	for _, name := range decls {
		if !live[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	sort.Strings(orphans)
	return dead, orphans, nil
}

// basePath strips the " [p.test]" suffix go list gives a test variant.
func basePath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
