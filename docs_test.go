package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links and autolinks are out of scope — the repository's docs use
// inline links throughout.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks walks every *.md file in the repository and verifies that
// each relative link resolves to an existing file or directory. Dead
// relative links are how documentation rots silently; this is the
// doc-link half of `make check` (the `doccheck` target).
func TestDocLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS metadata and test corpora.
			if name := d.Name(); path != "." && (name == ".git" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found; is the test running at the repo root?")
	}

	var checked int
	for _, md := range mdFiles {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		// Strip fenced code blocks: shell transcripts and sample output
		// legitimately contain )-adjacent parens that are not links.
		text := stripCodeFences(string(raw))
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external; liveness is not this test's business
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			// Drop anchors and URL-escapes from relative targets.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if unescaped, err := url.PathUnescape(target); err == nil {
				target = unescaped
			}
			resolved := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead relative link (%s): %v", md, m[1], err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no relative links checked; the link regexp may have rotted")
	}
	t.Logf("checked %d relative links across %d markdown files", checked, len(mdFiles))
}

// metricRegistration matches a metric registration call with its quoted
// name: the Registry constructors (Counter, Gauge, Histogram,
// CounterFunc, GaugeFunc) plus the lowercase local helper closures
// cmd/aqserver/obs.go registers through. Quoted metric names that are
// *not* registrations (e.g. cqlsh matching the derived
// `aq_wire_latency_ms_count` reading name) deliberately do not match.
var metricRegistration = regexp.MustCompile(
	`(?:Counter|Gauge|Histogram|CounterFunc|GaugeFunc|counter|gauge)\(\s*"((?:aq|durable)_[a-z0-9_]+)"`)

// catalogRow matches one metric-catalog table row in
// docs/OBSERVABILITY.md: a table line whose first cell is a backticked
// aq_/durable_ name. Prose mentions and PromQL samples are not rows.
var catalogRow = regexp.MustCompile("(?m)^\\|\\s*`((?:aq|durable)_[a-z0-9_]+)`\\s*\\|")

// TestMetricsCatalog is the metrics half of `make check`'s doccheck: the
// metric catalog in docs/OBSERVABILITY.md and the registrations in the
// code must agree in both directions. A metric added without a catalog
// row is invisible to operators; a catalog row whose metric was renamed
// or removed is documentation lying about the dashboard.
func TestMetricsCatalog(t *testing.T) {
	inCode := registrations(t)
	raw, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	inDocs := map[string]bool{}
	for _, m := range catalogRow.FindAllStringSubmatch(string(raw), -1) {
		inDocs[m[1]] = true
	}

	if len(inCode) < 40 || len(inDocs) < 40 {
		t.Fatalf("extraction rotted: %d registered names, %d catalogued rows (want ≥ 40 each)",
			len(inCode), len(inDocs))
	}
	for name, files := range inCode {
		if !inDocs[name] {
			t.Errorf("metric %q registered in %s but has no catalog row in docs/OBSERVABILITY.md",
				name, files[0])
		}
	}
	for name := range inDocs {
		if _, ok := inCode[name]; !ok {
			t.Errorf("docs/OBSERVABILITY.md catalogues %q but no code registers it", name)
		}
	}
	t.Logf("catalog check: %d registered metric names against %d documented rows", len(inCode), len(inDocs))
}

// registrations maps every metric name metricRegistration finds in non-test
// Go under internal/, cmd/ and examples/ to the files registering it, one
// entry per registration.
func registrations(t *testing.T) map[string][]string {
	t.Helper()
	inCode := map[string][]string{}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricRegistration.FindAllStringSubmatch(string(src), -1) {
				inCode[m[1]] = append(inCode[m[1]], filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return inCode
}

// TestOneInstrumentSet keeps every metric name registered in one non-test
// file. The server once exported a query's pipeline through four sets of
// instruments — the engine's cq.Telemetry, a handler wrapper
// (buffer.Instrument), the controller's core.Telemetry and its own copies —
// so seven names were registered in two places each, tuples-in was counted
// three ways, and seven of the engine's families never reached the server's
// /metrics. One name, one file: a second registration of a name is a second
// implementation of what it measures, and the two drift.
func TestOneInstrumentSet(t *testing.T) {
	inCode := registrations(t)
	if len(inCode) < 40 {
		t.Fatalf("extraction rotted: %d registered names (want ≥ 40)", len(inCode))
	}
	for name, files := range inCode {
		slices.Sort(files)
		if files = slices.Compact(files); len(files) != 1 {
			t.Errorf("metric %q is registered in %d files (%s): one instrument set, one place per name",
				name, len(files), strings.Join(files, ", "))
		}
	}
}

// executorCalls are the calls that make up the execution loop and the
// durability protocol: whoever calls one of them is an executor. The value
// is the argument count that identifies the call where the bare name is
// shared with something harmless (obs.Histogram.Observe takes one
// argument, window operators three); 0 matches any.
var executorCalls = map[string]int{
	"Insert": 2, "InsertBatch": 0, "Observe": 3, "Flush": 0, // handler insert/flush, window observe/flush
	"AppendItems": 0, "AppendEmitProgress": 0, // journal
	"CutForSnapshot": 0, "WriteSnapshot": 0, "SaveHandler": 0, // snapshot
	"TakeRecovery": 0, "RestoreHandler": 0, "Recovery": 0, // recovery
}

// TestOneExecutor is the structural half of `make check`'s doccheck: the
// buffer → window → emit loop and the durability protocol (journal, emit
// progress, snapshot cut/write, recovery restore + replay) exist once, in
// internal/cq/exec.go, and every way of running a query — Run,
// RunConcurrent, RunShared, a join's Run, cmd/aqserver's runners — is a
// driver over it: no other non-test file under internal/cq or cmd/aqserver
// makes one of the executorCalls, and none is exempt. Nor does the server
// read a snapshot or a recovery (durable.Snapshot, durable.Recovery): what a
// durable query carries across a restart is the engine's own state, which
// the engine restores.
// The repository once had six copies of the loop and two of the protocol,
// and they had drifted apart; this keeps a seventh from growing back.
func TestOneExecutor(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, dir := range []string{"internal/cq", "cmd/aqserver"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				files[filepath.ToSlash(path)] = f
			}
		}
	}
	if files["internal/cq/exec.go"] == nil || files["cmd/aqserver/server.go"] == nil {
		t.Fatalf("extraction rotted: parsed %d files, exec.go or server.go not among them", len(files))
	}
	calls := 0
	for path, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				args, banned := executorCalls[sel.Sel.Name]
				if !banned || (args != 0 && len(n.Args) != args) {
					return true
				}
				calls++
				if path != "internal/cq/exec.go" {
					t.Errorf("%s calls %s: the execution loop and the durability protocol live in internal/cq/exec.go; drive cq.Exec instead",
						fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "durable" && (n.Sel.Name == "Snapshot" || n.Sel.Name == "Recovery") &&
					strings.HasPrefix(path, "cmd/aqserver/") {
					t.Errorf("%s: the server reads durable.%s; a durable query's continuity is the engine's own state (cq.Exec, AggReport.Recovery)",
						fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.Ident:
				// The in-band snapshot marker and its split writer existed only
				// because handler and window ran on different goroutines.
				if n.Name == "snapCut" || n.Name == "writeSnapshotWith" {
					t.Errorf("%s: %s is back", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
	if calls < 10 {
		t.Fatalf("extraction rotted: only %d executor calls found anywhere", calls)
	}

	// The server's runner is bookkeeping around the core: no operator state
	// of its own, one constructor; and the ring consumer every driver runs
	// hands batches over whole.
	constructors, sawRunner, sawLoop := 0, false, false
	for path, f := range files {
		if path == "internal/cq/group.go" {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil && d.Name.Name == "Run" {
					sawLoop = true
					ast.Inspect(d.Body, func(n ast.Node) bool {
						if r, ok := n.(*ast.RangeStmt); ok {
							t.Errorf("%s: Group.Run loops over a ring batch; hand it to the step core whole (Exec.Step)",
								fset.Position(r.Pos()))
						}
						return true
					})
				}
			}
		}
		if !strings.HasPrefix(path, "cmd/aqserver/") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "queryRunner" {
						continue
					}
					sawRunner = true
					for _, field := range ts.Type.(*ast.StructType).Fields.List {
						for _, name := range field.Names {
							switch name.Name {
							case "handler", "buf", "op", "rel", "now", "emitFloor", "replaying":
								t.Errorf("%s: queryRunner.%s: operator and recovery state belong to cq.Exec",
									fset.Position(name.Pos()), name.Name)
							}
						}
					}
				}
			case *ast.FuncDecl:
				// Functions and methods alike: whoever writes a queryRunner
				// composite literal is a constructor.
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.CompositeLit); ok {
						if id, ok := lit.Type.(*ast.Ident); ok && id.Name == "queryRunner" {
							constructors++
							if d.Recv != nil || d.Name.Name != "newQueryRunner" {
								t.Errorf("%s: %s builds a queryRunner; newQueryRunner is the one constructor",
									fset.Position(lit.Pos()), d.Name.Name)
							}
						}
					}
					return true
				})
			}
		}
	}
	if !sawRunner || !sawLoop {
		t.Fatalf("extraction rotted: queryRunner found=%v Group.Run found=%v", sawRunner, sawLoop)
	}
	if constructors != 1 {
		t.Errorf("cmd/aqserver builds a queryRunner in %d places, want exactly one (newQueryRunner, from a runnerDef)", constructors)
	}
}

// TestOneErrorSimulation is TestOneExecutor's counterpart for the error
// model: non-test code in internal/core reads the value reservoir
// (values.Sample()) and draws synthetic windows from it
// (rng.Intn(len(sample)), or the batched rng.IntnUint64s(len(sample), …))
// in exactly one place, the sweep in (*Estimator).LossCurve that every
// estimate is read from. The model used to be re-simulated per probe,
// fourteen times per refresh; a second simulation path is how that grows
// back.
func TestOneErrorSimulation(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/core", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var draws, samples []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					at := fn.Name.Name + " at " + fset.Position(call.Pos()).String()
					switch {
					case sel.Sel.Name == "Sample" && len(call.Args) == 0:
						samples = append(samples, at)
					case sel.Sel.Name == "Intn" && len(call.Args) == 1,
						sel.Sel.Name == "IntnUint64s" && len(call.Args) == 3:
						if arg, ok := call.Args[0].(*ast.CallExpr); ok {
							if id, ok := arg.Fun.(*ast.Ident); ok && id.Name == "len" {
								draws = append(draws, at)
							}
						}
					}
					return true
				})
			}
		}
	}
	for what, where := range map[string][]string{"draws from a sample": draws, "reads the value reservoir": samples} {
		if len(where) != 1 || !strings.HasPrefix(where[0], "LossCurve at internal/core/estimator.go") {
			t.Errorf("internal/core %s in %d places, want only the sweep in LossCurve: %s",
				what, len(where), strings.Join(where, "; "))
		}
	}
}

// TestOneFrameParser keeps the wire grammar in one place: in non-test
// internal/netstream, number parsing (strconv.Parse*, the intField and
// uintField scanners, the value kernel valueField with its eiselLemire64
// step, and the digit-block scanner digitRun they share — each called by
// another only along the listed internal edges) and field splitting
// (bytes/strings Cut, Fields, Split*) occur only inside parseFrame, and
// both ways in — ParseLine for one line, (*Decoder).Decode for a
// connection's batches — call it. A fast path beside a slow one is two
// grammars the moment one of them is edited.
func TestOneFrameParser(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/netstream", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]map[string]bool{} // function or method name → what it calls
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				callees := calls[fn.Name.Name]
				if callees == nil {
					callees = map[string]bool{}
					calls[fn.Name.Name] = callees
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						callees[fun.Name] = true
					case *ast.SelectorExpr:
						if pkg, ok := fun.X.(*ast.Ident); ok {
							callees[pkg.Name+"."+fun.Sel.Name] = true
						}
					}
					return true
				})
			}
		}
	}
	// The package's own number parsers, and the calls one makes into another.
	scanners := map[string]bool{"intField": true, "uintField": true, "valueField": true, "digitRun": true, "eiselLemire64": true}
	internal := map[[2]string]bool{
		{"intField", "uintField"}:       true,
		{"uintField", "digitRun"}:       true,
		{"valueField", "digitRun"}:      true,
		{"valueField", "eiselLemire64"}: true,
	}
	grammar := func(callee string) bool {
		pkg, name, qualified := strings.Cut(callee, ".")
		switch {
		case !qualified:
			return scanners[callee] || callee == "fields"
		case pkg == "strconv":
			return strings.HasPrefix(name, "Parse")
		case pkg == "bytes" || pkg == "strings":
			return name == "Cut" || strings.HasPrefix(name, "Fields") || strings.HasPrefix(name, "Split")
		}
		return false
	}
	found := 0
	for fn, callees := range calls {
		for callee := range callees {
			if !grammar(callee) {
				continue
			}
			found++
			if fn != "parseFrame" && !internal[[2]string{fn, callee}] {
				t.Errorf("internal/netstream: %s calls %s: frames are parsed in parseFrame only", fn, callee)
			}
		}
	}
	if found < 9 {
		t.Fatalf("extraction rotted: %d grammar calls found in internal/netstream", found)
	}
	for _, entry := range []string{"ParseLine", "Decode"} {
		if !calls[entry]["parseFrame"] {
			t.Errorf("internal/netstream: %s does not call parseFrame", entry)
		}
	}
}

// TestOneAggregationCore keeps the window operator at one open-window
// evaluation path. The repository once shipped three (a per-window fold over
// a map of open aggregates, the finger B-tree, and panes) with a CoreKind
// switch and a server flag between the first two and a DST dimension whose
// only job was to prove the switch did nothing. In Go outside bench/:
// window.Op keeps no per-window map besides the emitted windows it retains
// for refinement; CoreKind has exactly one constant; NewOpWithCore and
// AggQuery.AggCore — kept only because bench/ compiles against them — ignore
// their argument and have no caller; and the reference fold in
// internal/window/oracle.go uses neither the operator nor internal/fiba, so
// what the two agree on they agree on independently. And no order statistic
// is evaluated by copying the window out of the tree: the one place in
// internal/window that fills a quantile sample wholesale is the aggregate
// RefineLate retains (orderStat), everything else selects across sorted panes.
func TestOneAggregationCore(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(path)] = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The shims: one-line bodies whose core parameter has no name to use.
	shims := 0
	for path, name := range map[string]string{"internal/window/core.go": "NewOpWithCore", "internal/cq/query.go": "AggCore"} {
		f := files[path]
		if f == nil {
			t.Fatalf("extraction rotted: %s not parsed", path)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != name {
				continue
			}
			shims++
			last := fn.Type.Params.List[len(fn.Type.Params.List)-1]
			for _, n := range last.Names {
				if n.Name != "_" {
					t.Errorf("%s: %s names its core argument %q; there is nothing to select", fset.Position(n.Pos()), name, n.Name)
				}
			}
			if len(fn.Body.List) != 1 {
				t.Errorf("%s: %s has %d statements; it is a one-line shim for bench/", fset.Position(fn.Pos()), name, len(fn.Body.List))
			}
		}
	}
	if shims != 2 {
		t.Fatalf("extraction rotted: found %d of the 2 bench/ shims", shims)
	}

	consts, sawOp := 0, false
	for path, f := range files {
		if strings.HasPrefix(path, "internal/window/") && !strings.HasSuffix(path, "_test.go") {
			n, op := coreDecls(t, fset, f)
			consts, sawOp = consts+n, sawOp || op
		}
		// Nobody selects a core: the names bench/ needs are declared, never used.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch id.Name {
			case "NewOpWithCore", "CoreFiba", "CoreKind":
				if path != "internal/window/core.go" && path != "internal/cq/query.go" {
					t.Errorf("%s: %s is used; it exists for bench/ only (window.NewOp is the constructor)", fset.Position(id.Pos()), id.Name)
				}
			case "AggCore":
				if path != "internal/cq/query.go" {
					t.Errorf("%s: AggCore is called; it does nothing and exists for bench/ only", fset.Position(id.Pos()))
				}
			case "Op", "NewOp", "KeyedOp", "NewKeyedOp", "fiba":
				if path == "internal/window/oracle.go" {
					t.Errorf("%s: the reference fold uses %s; it must stay independent of the operator and its tree", fset.Position(id.Pos()), id.Name)
				}
			}
			return true
		})
	}
	copies := 0
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/window/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				sel, ok := as.Lhs[0].(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "vals" || !makesSlice(as.Rhs[0]) {
					return true
				}
				copies++
				if path != "internal/window/orderstat.go" || fn.Name.Name != "orderStat" {
					t.Errorf("%s: %s fills a quantile sample wholesale; a window's order statistic is selected across its panes' sorted runs (orderstat.go), and only the aggregate RefineLate retains is built from them",
						fset.Position(as.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	if copies != 1 {
		t.Errorf("found %d wholesale quantile-sample constructions in internal/window, want the one retention site in orderStat (extraction rotted, or a second bulk copy)", copies)
	}
	if !sawOp || files["internal/window/oracle.go"] == nil {
		t.Fatalf("extraction rotted: window.Op found=%v, oracle.go parsed=%v", sawOp, files["internal/window/oracle.go"] != nil)
	}
	if consts != 1 {
		t.Errorf("internal/window declares %d CoreKind constants, want exactly one: a second one is a second core", consts)
	}
	for _, imp := range files["internal/window/oracle.go"].Imports {
		if strings.Contains(imp.Path.Value, "internal/fiba") {
			t.Errorf("%s: the reference fold imports %s", fset.Position(imp.Pos()), imp.Path.Value)
		}
	}
}

// makesSlice reports whether e is make(…) or append(make(…), …): a sample
// built in one go, as opposed to one grown by Add.
func makesSlice(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	return id.Name == "make" || (id.Name == "append" && len(call.Args) > 0 && makesSlice(call.Args[0]))
}

// coreDecls counts the CoreKind constants one internal/window file declares
// and reports whether it declares Op, flagging any map field of Op other
// than the retained (already emitted) windows.
func coreDecls(t *testing.T, fset *token.FileSet, f *ast.File) (consts int, sawOp bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		typed := false // a bare name in a const group repeats the spec above it
		for _, spec := range gd.Specs {
			switch sp := spec.(type) {
			case *ast.ValueSpec:
				if gd.Tok != token.CONST {
					continue
				}
				if sp.Type != nil || len(sp.Values) > 0 {
					id, _ := sp.Type.(*ast.Ident)
					typed = id != nil && id.Name == "CoreKind"
				}
				if typed {
					consts += len(sp.Names)
				}
			case *ast.TypeSpec:
				st, ok := sp.Type.(*ast.StructType)
				if !ok || sp.Name.Name != "Op" {
					continue
				}
				sawOp = true
				for _, field := range st.Fields.List {
					if _, isMap := field.Type.(*ast.MapType); !isMap {
						continue
					}
					for _, n := range field.Names {
						if n.Name != "retained" {
							t.Errorf("%s: window.Op.%s is a map: open windows live in the tree (fibacore.go), not in per-window state",
								fset.Position(n.Pos()), n.Name)
						}
					}
				}
			}
		}
	}
	return consts, sawOp
}

// TestOneIngestQueue keeps the fan-out ring the only transport between a
// source and a step core. The repository once had three doing that one job
// — RunConcurrent's source-stage goroutine and batch channel, aqserver's
// per-query item channel and drain worker, and the ring — and with them
// three overload vocabularies; every queue in front of the disorder buffer
// is latency the quality controller neither sees nor sizes. Non-test Go in
// internal/cq and cmd/aqserver declares no channel of stream items (or of
// batches of them), and the old vocabulary — OverloadPolicy, ShedNewest,
// ShedLate, ingestCap — names nothing in Go outside bench/: what a slow
// consumer costs is fanout.Policy and nothing else.
func TestOneIngestQueue(t *testing.T) {
	rings := 0
	parsed := eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		transportFree := !strings.HasSuffix(path, "_test.go") &&
			(strings.HasPrefix(path, "internal/cq/") || strings.HasPrefix(path, "cmd/aqserver/"))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch n.Name {
				case "OverloadPolicy", "ShedNewest", "ShedLate", "ingestCap":
					t.Errorf("%s: %s is back: slow-consumer policy is fanout.Policy, and the ring is the ingest queue",
						fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == "fanout" && transportFree {
					rings++
				}
			case *ast.ChanType:
				elem := n.Value
				if arr, ok := elem.(*ast.ArrayType); ok {
					elem = arr.Elt
				}
				if transportFree && (types.ExprString(elem) == "stream.Item" || types.ExprString(elem) == "itemBatch") {
					t.Errorf("%s: a channel of %s: items reach a step core through a fan-out ring subscription and nothing else",
						fset.Position(n.Pos()), types.ExprString(n.Value))
				}
			}
			return true
		})
	})
	if parsed < 100 || rings < 10 {
		t.Fatalf("extraction rotted: %d files parsed, %d uses of the ring in internal/cq and cmd/aqserver", parsed, rings)
	}
}

// TestOneRecycleSite keeps the fan-out ring's batch recycling in one place.
// A ring batch goes back to the free list at the Release that moves the last
// live consumer's cursor past it, or at the overwrite of its slot when no
// release did; both may find the same batch behind every cursor, and a batch
// handed out twice would be refilled under a consumer still reading it. So
// in non-test internal/fanout, pool.Put is called from exactly one function,
// recycle, and that function guards it with the batch's compare-and-swap.
func TestOneRecycleSite(t *testing.T) {
	puts, guarded := map[string]bool{}, map[string]bool{}
	fanoutFiles := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/fanout/") || strings.HasSuffix(path, "_test.go") {
			return
		}
		fanoutFiles++
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			where := path + ": " + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Put":
						if pool, ok := sel.X.(*ast.SelectorExpr); ok && pool.Sel.Name == "pool" {
							puts[where] = true
						}
					case "CompareAndSwap":
						guarded[where] = true
					}
				}
				return true
			})
		}
	})
	if fanoutFiles == 0 {
		t.Fatal("extraction rotted: no non-test internal/fanout file parsed")
	}
	const want = "internal/fanout/fanout.go: recycle"
	if len(puts) != 1 || !puts[want] {
		t.Errorf("non-test internal/fanout calls pool.Put in %v, want only %s", keys(puts), want)
	}
	if !guarded[want] {
		t.Errorf("%s does not guard its pool.Put with a CompareAndSwap", want)
	}
}

// TestOneRawRead keeps raw syscalls to the one call that is safe without the
// runtime's syscall hook. syscall.RawSyscall skips entersyscall, so the P is
// not handed off while the call runs: a call that can block stalls every
// goroutine on that P. The listener's conn reader issues read(2) on a
// non-blocking socket that way, which cannot block, so that sysmon is not
// woken on every paced tick. So: non-test Go outside bench/ calls
// syscall.RawSyscall or RawSyscall6 only in internal/netstream's conn reader,
// and only with SYS_READ.
func TestOneRawRead(t *testing.T) {
	const want = "internal/netstream/connread_linux.go: read"
	found := false
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		pkg := "" // the file's name for package syscall
		for _, imp := range f.Imports {
			if imp.Path.Value == `"syscall"` {
				pkg = "syscall"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return
		}
		isSyscall := func(e ast.Expr, names ...string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == pkg && slices.Contains(names, sel.Sel.Name)
		}
		for _, decl := range f.Decls {
			where := path + ": package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = path + ": " + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSyscall(call.Fun, "RawSyscall", "RawSyscall6") {
					return true
				}
				switch {
				case where != want:
					t.Errorf("%s (%s) calls %s.%s: raw syscalls belong to %s only",
						where, fset.Position(call.Pos()), pkg, call.Fun.(*ast.SelectorExpr).Sel.Name, want)
				case len(call.Args) == 0 || !isSyscall(call.Args[0], "SYS_READ"):
					t.Errorf("%s (%s) issues a raw syscall other than SYS_READ", where, fset.Position(call.Pos()))
				default:
					found = true
				}
				return true
			})
		}
	})
	if !found {
		t.Errorf("extraction rotted: no raw read(2) found in %s", want)
	}
}

// TestOneWindowStage keeps grouped execution inside the step core. For
// eighteen PRs RunConcurrent ran GROUP BY queries on a second window stage —
// a dispatcher broadcasting every released tuple to N shard workers and a
// serial k-way merger putting their output back into the order one keyed
// operator emits anyway — whose output the oracles held byte-identical to
// Run's and whose speed-up nobody could measure (EXPERIMENTS.md R16b); and
// cmd/aqserver ran such queries as a second runner kind, an engine pipeline
// outside its own lock, panic isolation and buffer gauges. So: the
// identifiers Shards, shardStage, shardOf and mergeStep name nothing in Go
// outside bench/; non-test internal/cq starts goroutines in one function,
// the ring driver runRing (its producer, and one core stage per group of
// queries); non-test cmd/aqserver calls neither RunConcurrent nor RunShared —
// its runners step a cq.Exec; and outside internal/window only
// internal/cq/exec.go names window.KeyedOp or its constructor, so only the
// step core can call its Observe and Flush. If a many-core host ever shows
// key-parallelism is needed, it comes back as N key-filtered subscribers on
// the fan-out ring, not as a second stage. (RunConcurrent and RunShared were
// once two copies of the ring driver, and their failure semantics had drifted
// apart: a panicking source killed the process under one of them, and a
// failed query left the other pumping an endless source forever.)
func TestOneWindowStage(t *testing.T) {
	const ringDriver = "internal/cq/engine.go: runRing"
	spawns, keyedRefs, serverFiles := map[string]int{}, 0, 0
	parsed := eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		prod := !strings.HasSuffix(path, "_test.go")
		inCQ := prod && strings.HasPrefix(path, "internal/cq/")
		inServer := prod && strings.HasPrefix(path, "cmd/aqserver/")
		if inServer {
			serverFiles++
		}
		for _, decl := range f.Decls {
			where := path + ": (package level)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = path + ": " + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && inCQ {
					spawns[where]++
					if where != ringDriver {
						t.Errorf("%s: a goroutine in %s: the ring driver (%s) starts goroutines, stages and entry points do not",
							fset.Position(g.Pos()), where, ringDriver)
					}
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch n.Name {
				case "Shards", "shardStage", "shardOf", "mergeStep":
					t.Errorf("%s: %s is back: grouped queries run one keyed window stage, inside Exec.Step",
						fset.Position(n.Pos()), n.Name)
				case "KeyedOp", "NewKeyedOp":
					if !prod || strings.HasPrefix(path, "internal/window/") {
						break
					}
					keyedRefs++
					if path != "internal/cq/exec.go" {
						t.Errorf("%s: %s outside the step core: a grouped query's windows are evaluated by cq.Exec",
							fset.Position(n.Pos()), n.Name)
					}
				case "RunConcurrent", "RunShared":
					if inServer {
						t.Errorf("%s: cmd/aqserver calls %s: every runner is stepped by its cq.Group's loop (groupRegistry.place)",
							fset.Position(n.Pos()), n.Name)
					}
				}
			}
			return true
		})
	})
	// Two go statements: the producer and the core stages.
	if parsed < 100 || serverFiles < 5 || keyedRefs == 0 || spawns[ringDriver] < 2 {
		t.Fatalf("extraction rotted: %d files parsed, %d of cmd/aqserver, %d KeyedOp references, goroutines by file %v",
			parsed, serverFiles, keyedRefs, spawns)
	}
}

// TestOneDisorderPass keeps queries that buffer one stream behind one fixed
// handler on one disorder pass. Until they shared one, three of each
// source's four fanout8_windows queries sorted every tuple into the same
// runs three times over: the K-slack in front of the window is an operator
// of the stream, not of the query. So: non-test internal/cq decides which
// handlers may feed several queries in exactly one function — the only one
// that names the shareable kinds besides the K-slack the step core's batched
// insert looks for — and both drivers that serve many queries off one ring
// group them by its key, cq.ShareKey: internal/cq's ring driver, and in
// cmd/aqserver the group registry, which is also the one function of non-test
// cmd/aqserver that subscribes to a ring (Attach, Subscribe, SubscribeLate).
// A second subscription path is how a query comes back with a disorder pass
// of its own — so NewShared, which let a caller hand a query a subscription
// of its own making, names nothing in the root module.
func TestOneDisorderPass(t *testing.T) {
	subscribe, kinds, shareKey := map[string]bool{}, map[string]bool{}, map[string]bool{}
	parsed := eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "NewShared" {
				t.Errorf("%s: NewShared is back: a query reaches a ring through RunShared or RunConcurrent", fset.Position(id.Pos()))
			}
			return true
		})
		inServer := strings.HasPrefix(path, "cmd/aqserver/")
		inCQ := strings.HasPrefix(path, "internal/cq/")
		if strings.HasSuffix(path, "_test.go") || !inServer && !inCQ {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			where := path + ": " + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					var name string
					switch fun := n.Fun.(type) {
					case *ast.SelectorExpr:
						name = fun.Sel.Name
					case *ast.Ident:
						name = fun.Name
					}
					switch name {
					case "Attach", "Subscribe", "SubscribeLate":
						if inServer {
							subscribe[where] = true
						}
					case "ShareKey":
						shareKey[where] = true
					}
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && id.Name == "buffer" && inCQ {
						switch n.Sel.Name {
						case "MaxSlack", "Percentile", "Punctuated", "NewMaxSlack", "NewPercentile", "NewPunctuated":
							kinds[where] = true
						}
					}
				}
				return true
			})
		}
	})
	if parsed < 100 {
		t.Fatalf("extraction rotted: %d files parsed", parsed)
	}
	only := func(what string, found map[string]bool, want string) {
		t.Helper()
		if len(found) != 1 || !found[want] {
			t.Errorf("%s in %v, want only %s", what, keys(found), want)
		}
	}
	only("non-test cmd/aqserver subscribes to a ring", subscribe, "cmd/aqserver/group.go: place")
	only("non-test internal/cq names the shareable handler kinds", kinds, "internal/cq/exec.go: shareable")
	for _, caller := range []string{"internal/cq/engine.go: runRing", "cmd/aqserver/group.go: place"} {
		if !shareKey[caller] {
			t.Errorf("%s does not group its queries by cq.ShareKey (callers: %v)", caller, keys(shareKey))
		}
	}
}

// TestOneRingConsumer keeps one loop reading the fan-out ring. Two used to —
// internal/cq's receiveRing behind RunShared and RunConcurrent, and
// cmd/aqserver's pumpRing — and they grouped queries, committed the journal
// and treated a panic two ways, and fixes landed in one of them only. Now both
// drivers run cq.Group.Run, and what a step does when something goes wrong
// is the driver's Fault, not a loop of its own. So: non-test root-module Go
// outside internal/fanout calls NextBatch or NextBatchProv from exactly one
// function, internal/cq's Group.Run. (bench/ is a module of its own, and its
// per-layer replay reads the ring to time it.)
func TestOneRingConsumer(t *testing.T) {
	const want = "internal/cq/group.go: Run"
	readers := map[string]bool{}
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/fanout/") {
			return
		}
		for _, decl := range f.Decls {
			where := path + ": (package level)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = path + ": " + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "NextBatch" || sel.Sel.Name == "NextBatchProv") {
					readers[where] = true
				}
				return true
			})
		}
	})
	if len(readers) != 1 || !readers[want] {
		t.Errorf("non-test code outside internal/fanout reads the fan-out ring in %v, want only %s", keys(readers), want)
	}
}

// TestOneWindowComputation keeps the adaptive controller's feedback on the
// query's own window operator. For thirty PRs AQKSlack computed every window
// a second time beside the query — a private DropLate window.Op fed each
// tuple it released, to learn the emitted value, and a window.Aggregate per
// open window over the same tuples, stragglers included, to learn the
// complete one — about a quarter of the adaptive step, and under GROUP BY a
// global window no query delivered. Now the operator keeps each emitted
// window until the controller's feedback horizon and reports it
// (window.Op.SetFeedback, cq.Exec). So: non-test internal/core names neither
// window.Op nor window.KeyedOp nor their constructors, and no struct in it
// holds a window.Aggregate, but for the one Monte-Carlo trial's thinned
// window the error model simulates (the estimator's sweepTrial.thin), which
// is no window a query emits.
func TestOneWindowComputation(t *testing.T) {
	allowed := map[string]bool{"internal/core/estimator.go: sweepTrial.thin": true}
	coreFiles := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/core/") || strings.HasSuffix(path, "_test.go") {
			return
		}
		coreFiles++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == "window" {
					switch n.Sel.Name {
					case "Op", "KeyedOp", "NewOp", "NewKeyedOp", "NewOpWithCore":
						t.Errorf("%s: window.%s: the controller reads the query's operator, it runs none of its own",
							fset.Position(n.Pos()), n.Sel.Name)
					}
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					holds := false
					ast.Inspect(field.Type, func(m ast.Node) bool {
						if sel, ok := m.(*ast.SelectorExpr); ok && sel.Sel.Name == "Aggregate" {
							if id, ok := sel.X.(*ast.Ident); ok && id.Name == "window" {
								holds = true
							}
						}
						return true
					})
					for _, name := range field.Names {
						if where := path + ": " + n.Name.Name + "." + name.Name; holds && !allowed[where] {
							t.Errorf("%s holds a window.Aggregate: a window's value is the query operator's (window.Final)", where)
						}
					}
				}
			}
			return true
		})
	})
	if coreFiles == 0 {
		t.Fatal("extraction rotted: no non-test internal/core file parsed")
	}
}

// TestOneAdaptiveHandler keeps one adaptive control loop. The band join's
// recall-driven handler used to be core.AQJoin, a copy of AQKSlack's —
// K-slack, lateness sketch, PI trim, realized-error EWMA, warm-up, adaptation
// clock, trace and mode switch — with no snapshot, no bound on its trace and
// no telemetry, and its realized recall reached it through a closure every
// caller wired by hand. Now one handler takes a quality model, the window
// aggregate's or the join's, and the join stage reports through the feedback
// protocol. So: exactly one type in non-test internal/core has a
// *buffer.KSlack field, and the PI trim (calls of Update, PI's being the
// package's only one) and the slack search (minSlack) are called from that
// type's methods alone — minSlack also from Estimator.MinKForLoss, the
// estimator's open-loop query, which holds no controller state.
func TestOneAdaptiveHandler(t *testing.T) {
	const handler = "AQKSlack"
	var owners []string
	sites := map[string][]string{} // callee → "Type.Method" of every caller
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/core/") || strings.HasSuffix(path, "_test.go") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if star, ok := field.Type.(*ast.StarExpr); ok && types.ExprString(star.X) == "buffer.KSlack" {
						owners = append(owners, ts.Name.Name)
					}
				}
			}
			return true
		})
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			caller := fn.Name.Name
			if fn.Recv != nil {
				caller = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + caller
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "minSlack" {
						sites["minSlack"] = append(sites["minSlack"], caller)
					}
				case *ast.SelectorExpr:
					if fun.Sel.Name == "Update" {
						sites["Update"] = append(sites["Update"], caller)
					}
				}
				return true
			})
		}
	})
	if !slices.Equal(owners, []string{handler}) {
		t.Errorf("types with a *buffer.KSlack field in internal/core: %v, want %s alone", owners, handler)
	}
	for _, callee := range []string{"minSlack", "Update"} {
		if len(sites[callee]) == 0 {
			t.Errorf("extraction rotted: no call of %s found in internal/core", callee)
		}
		for _, caller := range sites[callee] {
			if !strings.HasPrefix(caller, handler+".") && !(callee == "minSlack" && caller == "Estimator.MinKForLoss") {
				t.Errorf("%s calls %s: the control loop is %s's alone", caller, callee, handler)
			}
		}
	}
}

// declared marks a setting that is the query's declaration, which the user
// states: its quality bound and what it bounds.
const declared = "the query's declaration"

// qualityKnobs is every settable value of the adaptive handler, named by its
// path from core.Config or core.JoinConfig (the estimator's through
// Config.Estimator, the same core.EstimatorConfig that NewEstimator takes).
// A value that is not the query's declaration says why it is still settable.
var qualityKnobs = map[string]string{
	"Config.Theta":                   declared,
	"Config.Spec":                    declared,
	"Config.Agg":                     declared,
	"Config.FeedbackHorizon":         "the feedback tests' emit-and-finalize-in-one-run case needs a horizon of a fifth of a slide",
	"Config.WarmupTuples":            "the warm-up is an open question of the controller (ROADMAP item 5(a), the recall warm-up hole); tests shorten it to adapt from the start",
	"Config.Estimator.ReservoirSize": "the executor tests' cost seam: a small value sample keeps an adaptive run cheap",
	"Config.Estimator.MCTrials":      "the executor tests' cost seam: few Monte-Carlo trials keep an adaptive run cheap",
	"Config.Estimator.Seed":          "the experiments and the benchmark seed the estimator's sampling",
	"JoinConfig.Recall":              declared,
	"JoinConfig.Band":                declared,
	"JoinConfig.Streams":             declared,
	"JoinConfig.WarmupTuples":        "as Config.WarmupTuples",
}

// TestOneQualityKnob keeps the quality bound the controller's one knob. The
// paper's user states a bound on result quality — relative error ≤ θ for an
// aggregate, recall ≥ r for a join — and the system picks the buffer; yet
// core.Config and core.JoinConfig once offered the slack ceiling, the safety
// share of the bound, the PI gains, the loss-curve refresh, the sketch's rank
// error and the window-count smoothing, each with the one value every program
// used. They are the package's constants now (docs/ALGORITHMS.md tabulates
// them). So: every exported field of the two configs, through the structs of
// package core they hold, is a recorded value of qualityKnobs with a reason,
// and every recorded value is still a field.
func TestOneQualityKnob(t *testing.T) {
	found := map[string]bool{}
	pkg := reflect.TypeFor[core.Config]().PkgPath()
	var walk func(prefix string, ty reflect.Type)
	walk = func(prefix string, ty reflect.Type) {
		for i := range ty.NumField() {
			f := ty.Field(i)
			if !f.IsExported() {
				continue
			}
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct && ft.PkgPath() == pkg {
				walk(prefix+f.Name+".", ft)
				continue
			}
			found[prefix+f.Name] = true
		}
	}
	walk("Config.", reflect.TypeFor[core.Config]())
	walk("JoinConfig.", reflect.TypeFor[core.JoinConfig]())
	if !found["Config.Theta"] || !found["Config.Estimator.Seed"] || !found["JoinConfig.Recall"] {
		t.Fatalf("extraction rotted: %v", keys(found))
	}
	for _, name := range keys(found) {
		if qualityKnobs[name] == "" {
			t.Errorf("core.%s is settable but not recorded: make it a constant, or record why a program sets it", name)
		}
	}
	recorded := make([]string, 0, len(qualityKnobs))
	for name := range qualityKnobs {
		recorded = append(recorded, name)
	}
	sort.Strings(recorded)
	for _, name := range recorded {
		if !found[name] {
			t.Errorf("qualityKnobs records core.%s, which is no longer a field", name)
		}
	}
}

// TestOneBufferTrace keeps the disorder buffer's flight-recorder events in
// the executor. A handler wrapper, buffer.Traced, used to write them: every
// traced query ran through it, the executor looked behind it for the concrete
// handler and the feedback protocol, and each need of the executor's added a
// method to it (Sync, Advance, Mirror, Split) — while the only other wrapper,
// buffer.Timeout, dropped the feedback protocol without a word. Now cq.Exec
// reads the handler's stats once per step and each window stage records its
// own deltas. So: non-test code calls (*tracez.Tracer).BufferSync from
// internal/cq/exec.go only, and non-test internal/buffer does not import
// tracez.
func TestOneBufferTrace(t *testing.T) {
	const want = "internal/cq/exec.go"
	found := false
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		if strings.HasPrefix(path, "internal/buffer/") {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"repro/internal/obs/tracez"` {
					t.Errorf("%s imports tracez: the executor records the buffer's trace, the handlers know nothing of it", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "BufferSync" {
				if path != want {
					t.Errorf("%s calls BufferSync: the disorder buffer's events are recorded in %s only", fset.Position(call.Pos()), want)
				}
				found = true
			}
			return true
		})
	})
	if !found {
		t.Errorf("extraction rotted: no BufferSync call found in %s", want)
	}
}

// TestOneQueryTable keeps one record of a query: the server's query table
// (cmd/aqserver's server.queries). aqserver used to record each runtime query
// twice, in fleet.Registry (name, tenant quota slot, stop hook) and in its
// own table (the runner), and the two diverged: racing registrations of one
// name both passed the first check, so a loser's series replaced the live
// query's, and a registration that lost the tenant's last slot after
// building its runner kept its series exported. Now the table admits, lists
// and ends every query under one lock, and internal/fleet keeps only sources.
// So: no exported declaration of non-test internal/fleet — type, func,
// method, const, var or struct field — has Query or Tenant in its name.
func TestOneQueryTable(t *testing.T) {
	const dir = "internal/fleet/"
	var bad []string
	checked := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if !strings.HasPrefix(path, dir) || strings.HasSuffix(path, "_test.go") {
			return
		}
		check := func(id *ast.Ident) {
			checked++
			if id.IsExported() && (strings.Contains(id.Name, "Query") || strings.Contains(id.Name, "Tenant")) {
				bad = append(bad, fmt.Sprintf("%s %s", fset.Position(id.Pos()), id.Name))
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						check(sp.Name)
						if st, ok := sp.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									check(id)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							check(id)
						}
					}
				}
			}
		}
	})
	if checked < 10 {
		t.Fatalf("extraction rotted: %d names checked under %s", checked, dir)
	}
	for _, line := range bad {
		t.Errorf("%s: internal/fleet keeps sources only; a query's name, tenant and quota slot are the server's query table's", line)
	}
}

// keys lists a map's keys, sorted.
func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// eachGoFile parses every Go file of the root module — tests included,
// bench/ (a module of its own) and dot-directories excluded — hands each to
// visit under its slash-separated path, and returns how many there were.
func eachGoFile(t *testing.T, visit func(fset *token.FileSet, path string, f *ast.File)) (parsed int) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		visit(fset, filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

func stripCodeFences(s string) string {
	var out strings.Builder
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// testOnlyAllowlist names the code that no program path reaches and that
// stays anyway, each with the reason; it holds at most 12 entries. An entry
// is a package directory
// (every exported declaration and exported method in it is a root), a
// declaration "dir.Name" (a type brings its exported methods), or a method
// "dir.Type.Method".
var testOnlyAllowlist = map[string]string{
	"internal/dst":                          "the deterministic simulation harness: the DST, crash and join sweeps call its entry points",
	"internal/oracle":                       "the differential oracles the DST harness and the package tests hold every run to",
	"internal/netstream.Client":             "the reconnecting TCP producer the cmd/aqserver integration tests drive; a _test.go file cannot be imported from another package",
	"internal/netstream.ParseLine":          "the one-line entry of the frame-parser oracles (TestOneFrameParser, FuzzLineProtocol, TestParserMatchesReference)",
	"internal/fleet.Source.Subscribers":     "the ring-level subscription count the cmd/aqserver sharing and leak tests assert; a _test.go file cannot be imported from another package",
	"internal/resilience.FaultSource.Stats": "the injected-fault counts the chaos tests of internal/resilience and internal/cq check their fault configuration against",
	"internal/obs/tracez.Recorder.Total":    "the flight-recorder pin (TestFlightRecorderPinned) reads it and stays unedited",
}

// TestNoTestOnlyCode fails on code that only tests reach. It type-checks
// every non-test package of the module plus bench/aqbench (read, never
// reported: its uses keep code alive), then walks reachability from each
// main and init, every package-level var and the allowlist. A declaration
// is reached through any identifier use inside a reached declaration; a
// method of a reached type is also reached when the type implements an
// interface that names it, one the reached code declares or one exported
// by a standard package the program imports (fmt.Stringer, error,
// http.Handler, ...), since a call through the interface names no concrete
// method. A const
// block is reached as a whole, because iota positions matter. Every
// unreached func, method, type, const or var outside bench/ is an error,
// and so is an allowlist entry that names nothing or that is reached anyway.
// Dead code is not free: every refactor of the pipeline has to carry it and
// keep it compiling, and a test of it proves nothing about the program.
func TestNoTestOnlyCode(t *testing.T) {
	start := time.Now()
	prog := loadProgram(t)
	if len(prog.pkgs) < 20 || prog.pkgs["repro/bench/aqbench"] == nil || prog.pkgs["repro/internal/cq"] == nil {
		t.Fatalf("extraction rotted: loaded %d packages", len(prog.pkgs))
	}
	var base []*progDecl
	for _, d := range prog.decls {
		if d.root {
			base = append(base, d)
		}
	}
	live := prog.reach(base)
	if len(testOnlyAllowlist) > 12 {
		t.Errorf("the allowlist has %d entries: keep it to 12", len(testOnlyAllowlist))
	}
	entries := make([]string, 0, len(testOnlyAllowlist))
	for entry, reason := range testOnlyAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %s carries no reason", entry)
		}
		entries = append(entries, entry)
	}
	sort.Strings(entries)
	var allow []*progDecl
	for _, entry := range entries {
		roots := prog.allowed(entry)
		if len(roots) == 0 {
			t.Errorf("allowlist entry %s names nothing", entry)
			continue
		}
		if !slices.ContainsFunc(roots, func(d *progDecl) bool { return !live[d] }) {
			t.Errorf("allowlist entry %s is reached by the program: drop it", entry)
		}
		allow = append(allow, roots...)
	}
	live = prog.reach(append(base, allow...))
	var dead []string
	for _, d := range prog.decls {
		if !live[d] && !strings.HasPrefix(d.pkg.dir, "bench/") {
			dead = append(dead, fmt.Sprintf("%s %s", prog.fset.Position(d.pos), d.name))
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s: no program path reaches it; delete it (or move what a test needs into a _test.go file)", line)
	}
	t.Logf("%d packages, %d declarations, %d unreached, %s", len(prog.pkgs), len(prog.decls), len(dead), time.Since(start).Round(time.Millisecond))
}

// settingStructs are the option structs whose every exported field
// TestNoTestOnlySetting holds to a program that sets it, by import path.
// core's configs are TestOneQualityKnob's; resilience.Chaos is filled from
// the -chaos flag by ParseChaos.
var settingStructs = map[string][]string{
	"repro/internal/cq":         {"SharedOpts"},
	"repro/internal/durable":    {"Options"},
	"repro/internal/fanout":     {"Options"},
	"repro/internal/fleet":      {"Options"},
	"repro/internal/metrics":    {"CompareOpts"},
	"repro/internal/obs":        {"HistoryOptions"},
	"repro/internal/resilience": {"Retry"},
}

// settingSeams names the fields of settingStructs that no program sets and
// that stay settable anyway, each with the reason; it holds at most 8
// entries.
var settingSeams = map[string]string{
	"cq.SharedOpts.Policy":          "the in-process lap-accounting tests run ShedOldest subscribers; cmd/aqserver's rings set their policy per subscription",
	"cq.SharedOpts.Sink":            "RunConcurrent hands its sink to the ring driver through it",
	"durable.Options.SegmentBytes":  "the crash sweep's small segments exercise rotation and compaction",
	"durable.Options.FsyncOnCommit": "durability safety: the machine-crash guarantee the journal tests turn on",
	"fleet.Options.Clock":           "a fake clock for the rate limiter's deterministic tests",
	"obs.HistoryOptions.Now":        "a fake clock for the history's deterministic tests",
	"resilience.Retry.Clock":        "a fake clock for the deterministic simulation's virtual time and the backoff tests",
	"resilience.Retry.Jitter":       "the backoff-arithmetic tests turn jitter off to check exact delays",
}

// TestNoTestOnlySetting fails on a setting that no program sets. An option
// that every caller leaves at its default is a branch the program never
// takes and a knob the documentation has to explain; one that only the
// simulation harness sets chooses between equivalent implementations. So:
// every exported field of settingStructs is written — a composite-literal
// key or an assignment through a selector — by non-test code outside its
// own package and outside
// internal/dst and internal/oracle (bench/aqbench counts), or it is a
// seam of settingSeams with a reason; and every seam is still a field that
// no program sets.
func TestNoTestOnlySetting(t *testing.T) {
	prog := loadProgram(t)
	fields := map[*types.Var]string{} // field → "pkg.Type.Field"
	home := map[string]string{}       // "pkg.Type.Field" → declaring dir
	for path, names := range settingStructs {
		pkg := prog.pkgs[path]
		if pkg == nil {
			t.Fatalf("extraction rotted: %s is not loaded", path)
		}
		for _, name := range names {
			tn, _ := pkg.types.Scope().Lookup(name).(*types.TypeName)
			if tn == nil {
				t.Fatalf("extraction rotted: %s.%s is not a type", path, name)
			}
			st := tn.Type().Underlying().(*types.Struct)
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					id := pkg.types.Name() + "." + name + "." + f.Name()
					fields[f], home[id] = id, pkg.dir
				}
			}
		}
	}
	set := map[string]bool{}
	for _, pkg := range prog.pkgs {
		if pkg.dir == "internal/dst" || pkg.dir == "internal/oracle" {
			continue
		}
		write := func(e ast.Expr) {
			var id *ast.Ident
			switch e := e.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				return
			}
			if f, ok := pkg.info.Uses[id].(*types.Var); ok && fields[f] != "" && home[fields[f]] != pkg.dir {
				set[fields[f]] = true
			}
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							write(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							write(sel)
						}
					}
				}
				return true
			})
		}
	}
	if !set["cq.SharedOpts.Batch"] || !set["durable.Options.Dir"] || len(home) < 20 {
		t.Fatalf("extraction rotted: %d fields, set %v", len(home), keys(set))
	}
	if len(settingSeams) > 8 {
		t.Errorf("settingSeams has %d entries: keep it to 8", len(settingSeams))
	}
	for _, id := range keys(home) {
		if !set[id] && settingSeams[id] == "" {
			t.Errorf("%s is settable but no program sets it: make it a constant with the value every caller uses, or record why it stays", id)
		}
	}
	for _, id := range keys(settingSeams) {
		switch {
		case settingSeams[id] == "":
			t.Errorf("settingSeams entry %s carries no reason", id)
		case home[id] == "":
			t.Errorf("settingSeams records %s, which is no longer a field", id)
		case set[id]:
			t.Errorf("settingSeams records %s, which a program sets: drop the entry", id)
		}
	}
}

// progPkg is one type-checked non-test package.
type progPkg struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// progDecl is one package-level declaration: a func, a method, a type, a
// var spec or a whole const block.
type progDecl struct {
	pkg  *progPkg
	name string // dir.Name or dir.Type.Method
	pos  token.Pos
	objs []types.Object
	node ast.Node
	recv *types.TypeName // a method's receiver base type
	root bool            // main, init or a package-level var
}

type program struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*progPkg // by import path
	decls  []*progDecl
	byObj  map[types.Object]*progDecl
	ifaces []*types.Interface // error and the standard interfaces the program imports
}

// loadProgram type-checks every non-test package of the module (bench/, a
// module of its own, and dot-directories excluded) plus bench/aqbench,
// honouring build constraints, and indexes their declarations.
func loadProgram(t *testing.T) *program {
	t.Helper()
	p := &program{
		fset:   token.NewFileSet(),
		pkgs:   map[string]*progPkg{},
		byObj:  map[types.Object]*progDecl{},
		ifaces: []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	p.std = importer.Default()
	dirs := []string{"bench/aqbench"}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), "."))) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(path))
			if !slices.Contains(dirs, dir) {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		path := "repro"
		if dir != "." {
			path += "/" + dir
		}
		if _, err := p.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.types.Imports() {
			if _, ours := p.pkgs[imp.Path()]; ours {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !slices.Contains(p.ifaces, it) {
						p.ifaces = append(p.ifaces, it)
					}
				}
			}
		}
		p.index(pkg)
	}
	return p
}

// Import resolves repro/... to the module's own directories, type-checking
// them from source, and everything else to the standard library.
func (p *program) Import(path string) (*types.Package, error) {
	if pkg := p.pkgs[path]; pkg != nil {
		return pkg.types, nil
	}
	dir, ours := strings.CutPrefix(path, "repro/")
	if path == "repro" {
		dir, ours = ".", true
	}
	if !ours {
		return p.std.Import(path)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &progPkg{dir: dir, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.files = append(pkg.files, f)
	}
	conf := types.Config{Importer: p}
	pkg.types, err = conf.Check(path, p.fset, pkg.files, pkg.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	return pkg.types, nil
}

// index records pkg's package-level declarations, a method under its
// receiver's base type.
func (p *program) index(pkg *progPkg) {
	add := func(d *progDecl) {
		d.pkg = pkg
		p.decls = append(p.decls, d)
		for _, o := range d.objs {
			p.byObj[o] = d
		}
	}
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d := &progDecl{name: pkg.dir + "." + decl.Name.Name, pos: decl.Pos(), node: decl}
				if o := pkg.info.Defs[decl.Name]; o != nil && decl.Name.Name != "_" {
					d.objs = []types.Object{o}
				}
				if decl.Recv != nil {
					named, _ := types.Unalias(deref(pkg.info.Defs[decl.Name].Type().(*types.Signature).Recv().Type())).(*types.Named)
					d.recv = named.Obj()
					d.name = pkg.dir + "." + d.recv.Name() + "." + decl.Name.Name
				} else {
					d.root = decl.Name.Name == "init" || (decl.Name.Name == "main" && pkg.types.Name() == "main")
				}
				add(d)
			case *ast.GenDecl:
				if decl.Tok == token.CONST {
					d := &progDecl{pos: decl.Pos(), node: decl}
					for _, spec := range decl.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.Name != "_" {
								d.objs = append(d.objs, pkg.info.Defs[id])
							}
						}
					}
					if len(d.objs) > 0 {
						d.name = pkg.dir + "." + d.objs[0].Name()
						add(d)
					}
					continue
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(&progDecl{name: pkg.dir + "." + spec.Name.Name, pos: spec.Pos(), node: spec, objs: []types.Object{pkg.info.Defs[spec.Name]}})
					case *ast.ValueSpec:
						d := &progDecl{name: pkg.dir + "." + spec.Names[0].Name, pos: spec.Pos(), node: spec, root: true}
						for _, id := range spec.Names {
							if o := pkg.info.Defs[id]; o != nil {
								d.objs = append(d.objs, o)
							}
						}
						add(d)
					}
				}
			}
		}
	}
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// allowed resolves an allowlist entry to the declarations it roots.
func (p *program) allowed(entry string) []*progDecl {
	var out []*progDecl
	for _, d := range p.decls {
		exported := len(d.objs) > 0 && d.objs[0].Exported()
		switch {
		case d.pkg.dir == entry && exported && (d.recv == nil || d.recv.Exported()),
			d.name == entry,
			d.recv != nil && d.pkg.dir+"."+d.recv.Name() == entry && exported:
			out = append(out, d)
		}
	}
	return out
}

// reach returns every declaration reachable from roots.
func (p *program) reach(roots []*progDecl) map[*progDecl]bool {
	live := map[*progDecl]bool{}
	ifaces := slices.Clone(p.ifaces)
	matched := map[[2]types.Type]bool{}
	work := slices.Clone(roots)
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			if live[d] {
				continue
			}
			live[d] = true
			ast.Inspect(d.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					o := d.pkg.info.Uses[n]
					switch v := o.(type) {
					case *types.Func:
						o = v.Origin()
					case *types.Var:
						o = v.Origin()
					}
					if u := p.byObj[o]; u != nil && !live[u] {
						work = append(work, u)
					}
				case *ast.InterfaceType:
					if it, ok := d.pkg.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 && !slices.Contains(ifaces, it) {
						ifaces = append(ifaces, it)
					}
				}
				return true
			})
		}
		// A call through an interface names the interface's method, not the
		// concrete one: every live type that implements a live interface
		// keeps the methods the interface names. Where type parameters make
		// Implements meaningless, having a method of every name it names
		// decides.
		for _, d := range p.decls {
			if len(d.objs) == 0 || !live[d] {
				continue
			}
			tn, ok := d.objs[0].(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			for _, it := range ifaces {
				key := [2]types.Type{named, it}
				if matched[key] {
					continue
				}
				methods := make([]*types.Func, it.NumMethods())
				for i := range methods {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(named, true, m.Pkg(), m.Name())
					methods[i], _ = obj.(*types.Func)
				}
				if named.TypeParams().Len() > 0 || mentionsTypeParam(it) {
					if slices.Contains(methods, nil) {
						continue
					}
				} else if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
					continue
				}
				matched[key] = true
				for _, fn := range methods {
					if u := p.byObj[fn.Origin()]; u != nil && !live[u] {
						work = append(work, u)
					}
				}
			}
		}
	}
	return live
}

// mentionsTypeParam reports whether a method of it has a type parameter in
// its signature: an interface declared inside a generic declaration.
func mentionsTypeParam(it *types.Interface) bool {
	var mentions func(t types.Type) bool
	mentions = func(t types.Type) bool {
		switch t := t.(type) {
		case *types.TypeParam:
			return true
		case *types.Pointer:
			return mentions(t.Elem())
		case *types.Slice:
			return mentions(t.Elem())
		case *types.Array:
			return mentions(t.Elem())
		case *types.Map:
			return mentions(t.Key()) || mentions(t.Elem())
		case *types.Chan:
			return mentions(t.Elem())
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				if mentions(t.TypeArgs().At(i)) {
					return true
				}
			}
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					if mentions(tup.At(i).Type()) {
						return true
					}
				}
			}
		}
		return false
	}
	for i := 0; i < it.NumMethods(); i++ {
		if mentions(it.Method(i).Type()) {
			return true
		}
	}
	return false
}
