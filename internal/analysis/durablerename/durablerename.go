// Package durablerename enforces the fsync discipline of the checkpoint and
// lease rename protocol (DESIGN.md §13, §15): the atomic-write recipe is
// write tmp, fsync tmp, rename, fsync parent dir — a crash at any instant
// then leaves either the old file or the new file, never a torn one, and
// the rename itself survives power loss. PR 10 made this recipe
// load-bearing (kill/resume byte-identity rides on it) but only convention
// kept new call sites honest.
//
// For every os.Rename call in non-test code the analyzer checks two
// dataflow facts on the enclosing function's CFG:
//
//  1. a file sync dominates the rename: on every path from entry to the
//     rename, (*os.File).Sync (or a helper named like fsyncFile) has been
//     called — the temp file's bytes are on disk before they get a name;
//  2. a directory sync follows the rename: on every path from the rename to
//     a function exit, a parent-dir sync (a helper named like fsyncDir /
//     syncDir / ensureDurableDir) executes — the rename itself is durable.
//     Paths that leave through the true edge of an `err != nil` test (or
//     the false edge of `err == nil`) are exempt: they propagate a failure
//     of the protocol itself, and the caller treats the write as not
//     having happened.
//
// The checks are intraprocedural and name-based for helpers: the analyzer
// does not prove the synced handle is the renamed file, it proves the
// protocol's shape. Renames that intentionally skip durability — the lease
// steal, whose file is advisory liveness state with a TTL, not data — carry
// //sammy:durablerename: with the justification.
package durablerename

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/flow"
)

// Analyzer is the durablerename pass.
var Analyzer = &analysis.Analyzer{
	Name:        "durablerename",
	Doc:         "require every os.Rename to be dominated by a file sync and followed on all non-error paths by a parent-dir sync (the tmp+fsync+rename checkpoint protocol)",
	SuppressKey: "durablerename",
	Run:         run,
}

// dirSyncRE matches helper functions that sync a directory.
var dirSyncRE = regexp.MustCompile(`(?i)^(f?sync(parent)?dir|dirsync|ensuredurabledir)$`)

// fileSyncHelperRE matches helper functions that sync a file by path.
var fileSyncHelperRE = regexp.MustCompile(`(?i)^f?syncfile$`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var name string
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				body, name = fn.Body, fn.Name.Name
			case *ast.FuncLit:
				body, name = fn.Body, "func-literal"
			default:
				return true
			}
			checkFunc(pass, name, body)
			return true // nested literals are visited on their own
		})
	}
	return nil
}

// checkFunc applies both requirements to every os.Rename in one function
// body (nested function literals excluded — they are their own graphs).
func checkFunc(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	renames := renameCalls(pass.TypesInfo, body)
	if len(renames) == 0 {
		return
	}
	g := cfg.New(name, body)

	// Requirement 1 as a must-analysis: fact = "a file sync has
	// definitely executed".
	lat := &flow.Lattice[bool]{
		Join:  func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
		TransferNode: func(n ast.Node, f bool) bool {
			if f {
				return true
			}
			return containsCall(pass.TypesInfo, n, isFileSync)
		},
	}
	res := flow.Forward(g, lat, false)

	for _, rename := range renames {
		blk, idx := locate(g, rename)
		if blk == nil {
			continue // rename inside a nested literal; that graph checks it
		}
		var missing []string

		synced, ok := res.In[blk]
		if ok {
			for i := 0; i < idx && !synced; i++ {
				synced = lat.TransferNode(blk.Nodes[i], synced)
			}
			// The rename's own node may carry the sync in an init stmt
			// (`if err := tmp.Sync(); ...` precedes it structurally, so
			// this is already covered); the rename call itself never syncs.
			if !synced {
				missing = append(missing, "no (*os.File).Sync on any path before the rename (temp file may be torn after a crash)")
			}
		}

		if ret := firstUnsyncedExit(pass.TypesInfo, g, blk, idx); ret != "" {
			missing = append(missing, "a path after the rename reaches "+ret+" without a parent-directory sync (the rename itself may not survive a crash)")
		}

		if len(missing) > 0 {
			pass.Reportf(rename.Pos(), "os.Rename violates the durable tmp+fsync+rename protocol: %s", strings.Join(missing, "; "))
		}
	}
}

// renameCalls collects the os.Rename calls in body, excluding nested
// function literals.
func renameCalls(info *types.Info, body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	for _, s := range body.List {
		cfg.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && analysis.IsPkgFunc(info, call, "os", "Rename") {
				out = append(out, call)
			}
			return true
		})
	}
	return out
}

// locate finds the block and node index whose node subtree contains call.
func locate(g *cfg.Graph, call *ast.CallExpr) (*cfg.Block, int) {
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			found := false
			cfg.Inspect(n, func(m ast.Node) bool {
				if m == ast.Node(call) {
					found = true
				}
				return !found
			})
			if found {
				return blk, i
			}
		}
	}
	return nil, 0
}

// containsCall reports whether node n (closures excluded) contains a call
// matching pred.
func containsCall(info *types.Info, n ast.Node, pred func(*types.Info, *ast.CallExpr) bool) bool {
	found := false
	cfg.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && pred(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// isFileSync recognizes (*os.File).Sync and fsyncFile-shaped helpers.
func isFileSync(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Name() == "Sync" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return analysis.IsNamed(sig.Recv().Type(), "os", "File")
		}
	}
	return fileSyncHelperRE.MatchString(fn.Name())
}

// isDirSync recognizes fsyncDir-shaped helpers (and ensureDurableDir, which
// syncs both the directory and its parent).
func isDirSync(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	return fn != nil && dirSyncRE.MatchString(fn.Name())
}

// firstUnsyncedExit walks forward from the rename (block blk, node index
// idx) and returns a description of the first exit reachable without
// passing a directory sync, or "" if every non-error path syncs.
// Error-test edges (`err != nil` true, `err == nil` false) terminate the
// search on that path — they propagate a failure of the protocol itself —
// and so do panic edges.
func firstUnsyncedExit(info *types.Info, g *cfg.Graph, blk *cfg.Block, idx int) string {
	// `defer fsyncDir(dir)` satisfies every exit at once: all return and
	// panic edges route through the defers block.
	for _, b := range g.Blocks {
		if b.Label == "defers" {
			for _, n := range b.Nodes {
				if containsCall(info, n, isDirSync) {
					return ""
				}
			}
		}
	}
	type item struct {
		b    *cfg.Block
		from int
	}
	seen := map[*cfg.Block]bool{}
	work := []item{{blk, idx}} // node idx is the rename's own statement
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		satisfied := false
		for i := it.from; i < len(it.b.Nodes); i++ {
			n := it.b.Nodes[i]
			if containsCall(info, n, isDirSync) {
				satisfied = true
				break
			}
			if _, ok := n.(*ast.ReturnStmt); ok {
				return "a return"
			}
		}
		if satisfied {
			continue
		}
		for _, e := range it.b.Succs {
			if isErrorEdge(info, e) {
				continue
			}
			switch e.Kind {
			case cfg.EdgeReturn:
				// Explicit returns were caught as nodes above; an
				// EdgeReturn edge still live here is the implicit
				// fall-off-end return.
				return "the end of the function"
			case cfg.EdgePanic:
				continue
			}
			if e.To == g.Exit {
				continue
			}
			if !seen[e.To] {
				seen[e.To] = true
				work = append(work, item{e.To, 0})
			}
		}
	}
	return ""
}

// isErrorEdge reports whether e enters an error-propagation path: the true
// edge of `X != nil` or the false edge of `X == nil`, with X error-typed.
func isErrorEdge(info *types.Info, e cfg.Edge) bool {
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var wantKind cfg.EdgeKind
	switch bin.Op.String() {
	case "!=":
		wantKind = cfg.EdgeTrue
	case "==":
		wantKind = cfg.EdgeFalse
	default:
		return false
	}
	if e.Kind != wantKind {
		return false
	}
	operand := bin.X
	if isNil(bin.X) {
		operand = bin.Y
	} else if !isNil(bin.Y) {
		return false
	}
	t := info.TypeOf(operand)
	return t != nil && isErrorType(t)
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}
