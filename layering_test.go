package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyHarnessesImportFault: the simulated system learns of a fault
// only through what the injector's fabric filter does to its messages,
// never by reading the injector's state. So among the production files
// under internal/, only the harnesses that drive faults — chaos,
// experiments and faulttest — may import internal/fault.
func TestOnlyHarnessesImportFault(t *testing.T) {
	harness := map[string]bool{"internal/chaos": true, "internal/experiments": true, "internal/faulttest": true}
	importers := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/fault" {
				importers[filepath.ToSlash(filepath.Dir(path))] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range importers {
		if !harness[dir] {
			t.Errorf("%s imports internal/fault; only chaos, experiments and faulttest may", dir)
		}
	}
	if !importers["internal/faulttest"] {
		t.Error("internal/faulttest does not import internal/fault: the scan is not seeing imports")
	}
}

// TestOnlyTheTransportTransmits: reliable.Transport.Post is the one path
// a VM's bytes take between, or within, its slices, so no production file
// outside the fabric itself (internal/topo) and the transport
// (internal/reliable) calls a Transmit method: a layer that charged the
// fabric on its own would bypass the transport's loopback, fault-free
// and acknowledged cases.
func TestOnlyTheTransportTransmits(t *testing.T) {
	allowed := map[string]bool{"internal/topo": true, "internal/reliable": true}
	callers := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Transmit" {
					callers[dir] = true
					if !allowed[dir] {
						t.Errorf("%s calls Transmit; only internal/topo and internal/reliable may", fset.Position(call.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !callers["internal/reliable"] {
		t.Error("internal/reliable does not call Transmit: the scan is not seeing calls")
	}
}

// TestNoDiscardedTimers: sim.Env.After and At return a *Timer so the
// caller can cancel it, and such a timer is never recycled. A statement
// that throws the timer away wants Defer or DeferAt, which schedule the
// same callback at the same (time, seq) on a pooled timer. So no
// production file of this module calls After or At as a bare statement
// or assigns the result to _. The scan is syntactic; it is sound because
// sim.Env declares the module's only methods named After or At, which
// the test checks too. Nested modules (perfbench) are not scanned.
func TestNoDiscardedTimers(t *testing.T) {
	timerCall := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "After" || sel.Sel.Name == "At")
	}
	kept := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && (n.Name.Name == "After" || n.Name.Name == "At") {
					if recv := types.ExprString(n.Recv.List[0].Type); recv != "*Env" || filepath.ToSlash(filepath.Dir(path)) != "internal/sim" {
						t.Errorf("%s: method %s on %s: the scan assumes only sim.Env has After and At",
							fset.Position(n.Pos()), n.Name.Name, recv)
					}
				}
			case *ast.ExprStmt:
				if timerCall(n.X) {
					t.Errorf("%s throws away the *sim.Timer of After or At; use Defer or DeferAt", fset.Position(n.Pos()))
				}
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && timerCall(n.Rhs[0]) {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						t.Errorf("%s throws away the *sim.Timer of After or At; use Defer or DeferAt", fset.Position(n.Pos()))
					} else {
						kept++
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if kept == 0 {
		t.Error("no After or At result is kept anywhere: the scan is not seeing calls")
	}
}

// TestNoZeroDelayHops: in the messaging layer and the DSM, a step that
// is ready runs in place. A message is one event, arrival and handler
// latency together, and a CallThen continuation or the directory's next
// step runs inside the event that made it ready, so a Defer or DeferArg
// with a zero delay there is an event that does no work. Only the sites
// below keep one, each for its reason; each must still exist. The scan
// is syntactic over the production files of both packages.
func TestNoZeroDelayHops(t *testing.T) {
	type site struct{ fn, callback string }
	allowed := map[site]string{
		{"MarkDead", "resume"}: "MarkDead walks the layer's waits, which resume shrinks and a continuation may grow",
		{"unlock", "dirGrant"}: "unlock's callers still have the previous holder's work to finish; a lock handoff is rare",
	}
	seen := map[site]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/msg", "internal/dsm"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) < 2 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "Defer" && sel.Sel.Name != "DeferArg") {
						return true
					}
					if lit, ok := call.Args[0].(*ast.BasicLit); !ok || lit.Value != "0" {
						return true
					}
					s := site{fn.Name.Name, types.ExprString(call.Args[1])}
					if _, ok := allowed[s]; ok {
						seen[s] = true
					} else {
						t.Errorf("%s: %s defers %s by zero: run the step in place", fset.Position(call.Pos()), s.fn, s.callback)
					}
					return true
				})
			}
		}
	}
	for s, why := range allowed {
		if !seen[s] {
			t.Errorf("allowed zero-delay hop %s in %s (%s) is gone: drop it from the allow-list", s.callback, s.fn, why)
		}
	}
}

// TestOnlyOccupyAndVacateChargeTheBooks: the fleet's free books
// (Fleet.freeCPU and Fleet.freeMem) have one writer pair. occupy charges
// a VM's vCPUs and their memory share to a node and panics when the node
// is down or full; vacate credits them back. So no statement in
// internal/fleet outside those two, and New's initialisation, assigns to
// an element of either vector: a hand-written loop would be one more
// copy of the charging rule, free to skip the check. The scan is
// syntactic: it sees writes through the fields, and the fleet keeps no
// alias of either vector.
func TestOnlyOccupyAndVacateChargeTheBooks(t *testing.T) {
	allowed := map[string]bool{"occupy": true, "vacate": true, "New": true}
	book := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return false
		}
		sel, ok := ix.X.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "freeCPU" || sel.Sel.Name == "freeMem")
	}
	writers := map[string]int{}
	fset := token.NewFileSet()
	paths, err := filepath.Glob("internal/fleet/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				}
				for _, e := range lhs {
					if !book(e) {
						continue
					}
					writers[name]++
					if !allowed[name] {
						t.Errorf("%s: %s writes the fleet's free books; only occupy and vacate may", fset.Position(e.Pos()), name)
					}
				}
				return true
			})
		}
	}
	if writers["occupy"] == 0 || writers["vacate"] == 0 {
		t.Errorf("writers found: %v; the scan is not seeing occupy and vacate", writers)
	}
}

// TestOnlySchedWritesPlacements: a sched.Placement is a node-sorted
// list of non-empty fragments, and CPUs and Add rely on that. Add keeps
// it, so no production file outside internal/sched assigns to a
// fragment of a placement (x[i] = …, x[i].CPUs += …, x[i].Node = …,
// x[i].CPUs++) or takes one's address: every other writer goes through
// Add. The scan is typed: each package's files are type-checked
// against its dependencies' export data from go list, and an element
// counts when its slice holds sched.Fragment. Nested modules
// (perfbench) are not scanned.
func TestOnlySchedWritesPlacements(t *testing.T) {
	const schedPath = "repro/internal/sched"
	out, err := exec.Command("go", "list", "-deps", "-export",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{.Module}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type pkg struct {
		path, dir string
		files     []string
	}
	var pkgs []pkg
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if f[2] == "repro" {
			pkgs = append(pkgs, pkg{f[0], f[3], strings.Fields(f[4])})
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	writes := map[string]int{}
	for _, p := range pkgs {
		var parsed []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check(p.path, fset, parsed, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		// fragment reports whether e is x[i], or a field of it, with x a
		// slice of sched.Fragment.
		fragment := func(e ast.Expr) bool {
			for {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					break
				}
				e = sel.X
			}
			ix, ok := e.(*ast.IndexExpr)
			if !ok {
				return false
			}
			s, ok := info.TypeOf(ix.X).Underlying().(*types.Slice)
			if !ok {
				return false
			}
			named, ok := s.Elem().(*types.Named)
			return ok && named.Obj().Name() == "Fragment" && named.Obj().Pkg().Path() == schedPath
		}
		for _, f := range parsed {
			ast.Inspect(f, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						targets = []ast.Expr{n.X}
					}
				}
				for _, e := range targets {
					if !fragment(e) {
						continue
					}
					writes[p.path]++
					if p.path != schedPath {
						t.Errorf("%s writes a placement's fragment; only internal/sched may (use Placement.Add)", fset.Position(e.Pos()))
					}
				}
				return true
			})
		}
	}
	if writes[schedPath] == 0 {
		t.Errorf("no fragment writes found in %s: the scan is not seeing them", schedPath)
	}
}

// TestOnlyTheVMPlacesVCPUs: every core a vCPU takes is chosen in one
// place, the hypervisor's freePCPU, at boot (hypervisor.New), for live
// migration (hypervisor.VM.MigrateVCPU) and for restart after a lender
// crash (hypervisor.VM.Restart) alike; a placement names nodes only. So
// no production file outside internal/vcpu, which implements the moves,
// and internal/hypervisor calls vcpu.Manager's Migrate or Repin, only
// internal/hypervisor calls vcpu.NewManager, and no production file
// outside internal/cluster and internal/hypervisor reads a node's PCPUs
// other than to range over all of them (as the fault injector does): a
// caller that did would pick a core by its own rule. The scan is
// syntactic; it is sound because vcpu.Manager declares the module's only
// methods named Migrate or Repin, internal/vcpu its only function named
// NewManager and cluster.Node its only field named PCPUs, which the test
// checks too. Nested modules (perfbench) are not scanned.
func TestOnlyTheVMPlacesVCPUs(t *testing.T) {
	allowed := map[string]bool{"internal/vcpu": true, "internal/hypervisor": true}
	placer := func(name string) bool { return name == "Migrate" || name == "Repin" }
	callers, builders, rangers := map[string]bool{}, map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ranged := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && placer(n.Name.Name) {
					if recv := types.ExprString(n.Recv.List[0].Type); recv != "*Manager" || dir != "internal/vcpu" {
						t.Errorf("%s: method %s on %s: the scan assumes only vcpu.Manager has Migrate and Repin",
							fset.Position(n.Pos()), n.Name.Name, recv)
					}
				}
				if n.Recv == nil && n.Name.Name == "NewManager" && dir != "internal/vcpu" {
					t.Errorf("%s: func NewManager: the scan assumes only internal/vcpu has one", fset.Position(n.Pos()))
				}
			case *ast.Field:
				for _, name := range n.Names {
					if name.Name == "PCPUs" && dir != "internal/cluster" {
						t.Errorf("%s: field PCPUs: the scan assumes only cluster.Node has one", fset.Position(n.Pos()))
					}
				}
			case *ast.RangeStmt:
				ranged[n.X] = true
			case *ast.SelectorExpr:
				if n.Sel.Name != "PCPUs" || dir == "internal/cluster" || dir == "internal/hypervisor" {
					break
				}
				if ranged[n] {
					rangers[dir] = true
				} else {
					t.Errorf("%s reads a node's PCPUs other than to range over them; only the VM (internal/hypervisor) picks a core", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if placer(sel.Sel.Name) {
					callers[dir] = true
					if !allowed[dir] {
						t.Errorf("%s calls %s; only the VM (internal/hypervisor) places vCPUs", fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
				if sel.Sel.Name == "NewManager" {
					builders[dir] = true
					if dir != "internal/hypervisor" {
						t.Errorf("%s calls NewManager; only the VM (internal/hypervisor) builds its vCPUs", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !callers["internal/hypervisor"] {
		t.Error("internal/hypervisor calls neither Migrate nor Repin: the scan is not seeing calls")
	}
	if !builders["internal/hypervisor"] {
		t.Error("internal/hypervisor does not call NewManager: the scan is not seeing calls")
	}
	if !rangers["internal/fault"] {
		t.Error("internal/fault does not range over a node's PCPUs: the scan is not seeing reads")
	}
}

// TestOneFleetProcDrivesBoundVMs: every committed change to a bound VM —
// a live vCPU migration or a checkpoint restore — is a job on the
// fleet's one queue, run in commit order by the one fleet-live proc. Two
// procs driving one live VM side by side would each look for vCPUs the
// other has not moved yet, and the live VM would drift from the books.
// So internal/fleet's production files call Spawn exactly once, in the
// queue.
func TestOneFleetProcDrivesBoundVMs(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("internal/fleet/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var spawns []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Spawn" {
					spawns = append(spawns, fset.Position(call.Pos()).String())
				}
			}
			return true
		})
	}
	if len(spawns) != 1 {
		t.Errorf("internal/fleet spawns procs at %v; want exactly one Spawn, the fleet-live queue's", spawns)
	}
}

// TestDeterministicSources: every output is a pure function of its
// seed only because nothing in the simulation reads a source the seed
// does not fix. So no production file of this module (nested modules
// such as perfbench are not scanned):
//   - starts a goroutine outside internal/sweep, which runs whole worlds
//     in parallel (procs are coroutines of the DES, and a goroutine
//     anywhere else would race its clock);
//   - reads the wall clock (time.Now, Since or Until) outside
//     internal/leakcheck, whose deadline bounds a test's goroutine wait;
//   - calls a package-level math/rand function other than New and
//     NewSource, which build a seeded generator; every other one draws
//     from the global source.
//
// The scan is syntactic: a package reference is an identifier named
// after the file's import that no declaration in the file resolves.
func TestDeterministicSources(t *testing.T) {
	randOK := map[string]bool{"New": true, "NewSource": true, "Rand": true, "Source": true, "Source64": true, "Zipf": true}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true}
	seen := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		names := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				seen["go"]++
				if dir != "internal/sweep" {
					t.Errorf("%s starts a goroutine; only internal/sweep may", fset.Position(n.Pos()))
				}
			case *ast.SelectorExpr:
				id, ok := n.X.(*ast.Ident)
				if !ok || id.Obj != nil {
					return true
				}
				switch names[id.Name] {
				case "time":
					if clock[n.Sel.Name] {
						seen["time"]++
						if dir != "internal/leakcheck" {
							t.Errorf("%s reads the wall clock (time.%s); only internal/leakcheck may", fset.Position(n.Pos()), n.Sel.Name)
						}
					}
				case "math/rand":
					seen["rand"]++
					if !randOK[n.Sel.Name] {
						t.Errorf("%s calls rand.%s, which draws from the global source; use a seeded rand.New", fset.Position(n.Pos()), n.Sel.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"go", "time", "rand"} {
		if seen[what] == 0 {
			t.Errorf("the scan saw no %s reference: it is not seeing the sources", what)
		}
	}
}
