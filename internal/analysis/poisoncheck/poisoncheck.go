// Package poisoncheck is a repo-local Go linter for the runtime's
// fault-containment invariants — the properties the poison protocol
// (PR 4) and the chaos harness (PR 8) rely on but the compiler cannot
// enforce:
//
//	spinloop   In the blocking-primitive packages (internal/poison,
//	           internal/barrier, internal/reduce, internal/asyncvar,
//	           internal/engine), a for-loop that yields
//	           (runtime.Gosched or time.Sleep) is a wait loop; it
//	           must observe the poison cell — a
//	           Check/Poisoned/Wait/WaitRelay call or a <-...Done()
//	           receive in its condition or body — or be literally
//	           bounded (`i < 64`-shaped condition), so a poisoned
//	           force cannot leave a process spinning forever.
//	select     In internal/poison (whose Await is the park every
//	           event-driven wait goes through), internal/barrier,
//	           internal/reduce and internal/asyncvar, a select with no
//	           default blocks; one of its cases must receive from a
//	           ...Done() channel so poison wakes the waiter.
//	           (internal/engine is exempt: its worker dispatch select
//	           legitimately blocks on the jobs/quit pair outside any
//	           force.)
//	firesite   Everywhere, the site argument of faultinject.Fire and
//	           FireErr must be one of the constants the faultinject
//	           package registers (or a string literal equal to one),
//	           so the chaos sweep's FORCE_FAULTS coordinates can never
//	           drift from the sites that actually fire.
//
// The checker is built on the standard library's go/parser and go/ast
// only — the module has no golang.org/x/tools dependency, so it runs
// as `go run ./cmd/poisoncheck` in CI rather than as a `go vet
// -vettool` plugin.  It is purely syntactic: no type information, no
// build, no imports outside the stdlib.
package poisoncheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	Pos     token.Position
	Rule    string // "spinloop", "select", "firesite"
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// spinPackages need every yielding loop to observe poison.
var spinPackages = []string{
	"internal/poison", "internal/barrier", "internal/reduce", "internal/asyncvar", "internal/engine",
}

// selectPackages need every blocking select to carry a Done() case.
var selectPackages = []string{
	"internal/poison", "internal/barrier", "internal/reduce", "internal/asyncvar",
}

// Run checks the repository rooted at root and returns the findings
// sorted by position.
func Run(root string) ([]Finding, error) {
	sites, err := loadSites(root)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	fset := token.NewFileSet()
	check := func(dir string, spin, sel bool) error {
		files, err := parseDir(fset, filepath.Join(root, dir))
		if err != nil {
			return err
		}
		for _, file := range files {
			findings = append(findings, CheckFile(fset, file, Rules{
				Spinloop: spin, Select: sel, FireSites: sites,
			})...)
		}
		return nil
	}
	spin := map[string]bool{}
	for _, d := range spinPackages {
		spin[d] = true
	}
	sel := map[string]bool{}
	for _, d := range selectPackages {
		sel[d] = true
	}
	// The firesite rule applies everywhere except inside faultinject
	// itself (which manipulates raw site strings by design).
	dirs, err := goPackageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if dir == "internal/faultinject" {
			continue
		}
		if err := check(dir, spin[dir], sel[dir]); err != nil {
			return nil, err
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		return findings[i].Pos.Line < findings[j].Pos.Line
	})
	return findings, nil
}

// Rules selects which checks CheckFile applies; FireSites nil disables
// the firesite rule.
type Rules struct {
	Spinloop  bool
	Select    bool
	FireSites map[string]bool // registered site names (values, e.g. "barrier.enter")
}

// CheckFile applies the enabled rules to one parsed file.
func CheckFile(fset *token.FileSet, file *ast.File, rules Rules) []Finding {
	var findings []Finding
	add := func(pos token.Pos, rule, format string, args ...interface{}) {
		findings = append(findings, Finding{
			Pos: fset.Position(pos), Rule: rule, Message: fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.ForStmt:
			if rules.Spinloop && loopYields(t) && !literallyBounded(t) && !observesPoison(t) {
				add(t.Pos(), "spinloop",
					"yielding wait loop neither observes the poison cell (Check/Poisoned/Wait/<-Done()) nor is literally bounded")
			}
		case *ast.SelectStmt:
			if rules.Select && !selectHasDefault(t) && !selectHasDoneCase(t) {
				add(t.Pos(), "select",
					"blocking select has no <-...Done() case: poison cannot wake this waiter")
			}
		case *ast.CallExpr:
			if rules.FireSites != nil {
				if name, ok := fireCall(t); ok {
					checkFireSite(t, name, rules.FireSites, add)
				}
			}
		}
		return true
	})
	return findings
}

// loopYields reports whether the loop body calls runtime.Gosched or
// time.Sleep — the signature of a spin-wait.
func loopYields(loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if pkg, name, ok := selectorParts(call.Fun); ok {
				if (pkg == "runtime" && name == "Gosched") || (pkg == "time" && name == "Sleep") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// literallyBounded matches the `for i := 0; i < 64; i++` shape: a
// condition comparing an identifier against an integer literal.  Such a
// loop terminates regardless of poison.
func literallyBounded(loop *ast.ForStmt) bool {
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return false
	}
	isIntLit := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		return ok && lit.Kind == token.INT
	}
	_, lIdent := cond.X.(*ast.Ident)
	_, rIdent := cond.Y.(*ast.Ident)
	return (lIdent && isIntLit(cond.Y)) || (rIdent && isIntLit(cond.X))
}

// poisonObservers are the method names that consult the poison cell.
var poisonObservers = map[string]bool{
	"Check": true, "Poisoned": true, "Wait": true, "WaitRelay": true,
}

// observesPoison reports whether the loop's condition or body consults
// the poison cell: a Check/Poisoned/Wait/WaitRelay call or a receive
// from a Done() channel.
func observesPoison(loop *ast.ForStmt) bool {
	found := false
	see := func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if _, name, ok := selectorParts(t.Fun); ok && poisonObservers[name] {
				found = true
			}
		case *ast.UnaryExpr:
			if t.Op == token.ARROW && isDoneCall(t.X) {
				found = true
			}
		}
		return !found
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, see)
	}
	ast.Inspect(loop.Body, see)
	return found
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if comm, ok := c.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

func selectHasDoneCase(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		comm, ok := c.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		recv := func(e ast.Expr) bool {
			u, ok := e.(*ast.UnaryExpr)
			return ok && u.Op == token.ARROW && isDoneCall(u.X)
		}
		switch t := comm.Comm.(type) {
		case *ast.ExprStmt:
			if recv(t.X) {
				return true
			}
		case *ast.AssignStmt:
			for _, r := range t.Rhs {
				if recv(r) {
					return true
				}
			}
		}
	}
	return false
}

// isDoneCall matches `<anything>.Done()`.
func isDoneCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	_, name, ok := selectorParts(call.Fun)
	return ok && name == "Done"
}

// fireCall matches faultinject.Fire / faultinject.FireErr, returning
// the function name.
func fireCall(call *ast.CallExpr) (string, bool) {
	pkg, name, ok := selectorParts(call.Fun)
	if !ok || pkg != "faultinject" {
		return "", false
	}
	if name == "Fire" || name == "FireErr" {
		return name, true
	}
	return "", false
}

func checkFireSite(call *ast.CallExpr, name string, sites map[string]bool, add func(token.Pos, string, string, ...interface{})) {
	if len(call.Args) == 0 {
		return
	}
	switch arg := call.Args[0].(type) {
	case *ast.SelectorExpr:
		pkg, ok := arg.X.(*ast.Ident)
		if !ok || pkg.Name != "faultinject" {
			add(call.Pos(), "firesite", "%s site must be a faultinject.* constant", name)
			return
		}
		if !sites["$"+arg.Sel.Name] {
			add(call.Pos(), "firesite", "%s site faultinject.%s is not a registered injection site", name, arg.Sel.Name)
		}
	case *ast.BasicLit:
		if arg.Kind != token.STRING {
			add(call.Pos(), "firesite", "%s site must be a faultinject.* constant or a registered site string", name)
			return
		}
		v, err := strconv.Unquote(arg.Value)
		if err != nil || !sites[v] {
			add(call.Pos(), "firesite", "%s site %s is not a registered injection site", name, arg.Value)
		}
	default:
		add(call.Pos(), "firesite", "%s site must be a faultinject.* constant or a registered site string, not a computed value", name)
	}
}

// selectorParts splits pkg.Name selector calls; for method values like
// r.pc.Check it returns the receiver's final identifier and the method.
func selectorParts(e ast.Expr) (string, string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return x.Name, sel.Sel.Name, true
	case *ast.SelectorExpr:
		return x.Sel.Name, sel.Sel.Name, true
	default:
		return "", sel.Sel.Name, true
	}
}

// loadSites parses internal/faultinject and collects the registered
// site constants: the map carries both the string value ("barrier.enter")
// and the constant name keyed as "$Name" ("$BarrierEnter").
func loadSites(root string) (map[string]bool, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, filepath.Join(root, "internal", "faultinject"))
	if err != nil {
		return nil, err
	}
	sites := map[string]bool{}
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil || !strings.Contains(v, ".") {
						continue // site names are dotted; skip unrelated consts
					}
					sites[v] = true
					sites["$"+name.Name] = true
				}
			}
		}
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("poisoncheck: no injection sites found under %s/internal/faultinject", root)
	}
	return sites, nil
}

// parseDir parses every non-test .go file in dir.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// goPackageDirs lists every directory under root that contains .go
// files, as root-relative slash paths, skipping testdata and hidden
// directories.
func goPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			base := filepath.Base(path)
			if strings.HasPrefix(base, ".") && path != root || base == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// Walk order already groups files by directory, but be safe.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}
