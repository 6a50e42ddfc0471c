package analysis

import (
	"go/ast"
	"slices"
	"strings"
)

// AnalyzerStatusGuard enforces the one-writer invariant of task
// records in internal/service: only Service.transition may write the
// record hash (`X.Hash(recordsHash)` used other than for a direct
// Get/Len/Keys, so a write through a held handle counts), write or delete
// an entry of the in-memory record map (`X.records[k] = v`,
// `delete(X.records, k)`), or publish a task lifecycle event
// (`X.publish(...)`). transition applies each move under one lock, so
// a stale or backwards move can never overwrite a landed terminal
// status and events never publish out of order with the record. The
// one other publisher is publishDAG, which carries graph-level events
// (DAGRunning/DAGSuccess/DAGFailed) and is not tracked.
//
// The same rule keeps a graph journaled once: a write to the graph
// journal (`X.Hash(dagsHash)`, on the same terms) is allowed only at its
// three sites — the shape at submit (SubmitDAG), the final state at
// finish (finishDAG) and the delete at eviction (sweepFinishedDAGs) —
// so no per-completion rewrite of the whole graph can come back.
//
// The check is lexical: a tracked operation is allowed only in the
// body of the function named transition (or, for publishes, named
// publishDAG; for graph-journal writes, one of the three sites).
// Helpers do not inherit the permission, and function literals — which
// run at an unknown time, outside the enclosing critical section —
// never have it.
var AnalyzerStatusGuard = &Analyzer{
	Name: "statusguard",
	Doc:  "task records and lifecycle events are written only by Service.transition, graphs only at submit, finish and eviction",
	Run:  runStatusGuard,
}

// graphJournalSites are the functions that may write the graph journal.
var graphJournalSites = []string{"SubmitDAG", "finishDAG", "sweepFinishedDAGs"}

var statusGuardPackages = []string{"funcx/internal/service"}

func runStatusGuard(pass *Pass) {
	if !pkgPathIn(pass.Path, statusGuardPackages...) {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkRecordWriters(pass, fn.Name.Name, fn.Body)
			}
		}
	}
}

// checkRecordWriters reports tracked operations in body that the
// function named fn may not perform ("" for a function literal).
func checkRecordWriters(pass *Pass, fn string, body *ast.BlockStmt) {
	report := func(n ast.Node, kind string) {
		if strings.HasPrefix(kind, "graph-journal") {
			if !slices.Contains(graphJournalSites, fn) {
				pass.Reportf(n.Pos(), "%s outside the submit, finish and eviction sites; a graph is journaled once at submit and once at finish", kind)
			}
			return
		}
		if fn == "transition" || fn == "publishDAG" && kind == "lifecycle publish" {
			return
		}
		pass.Reportf(n.Pos(), "%s outside transition; task records and lifecycle events have one writer (Service.transition)", kind)
	}
	// used holds the tracked Hash calls already classified as the
	// receiver of a method call; any other one is a handle kept for later.
	used := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			checkRecordWriters(pass, "", e.Body)
			return false
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isRecordsField(ix.X) {
					report(lhs, "record write")
				}
			}
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if kind := trackedHash(sel.X); kind != "" {
					used[sel.X] = true
					if !slices.Contains(hashReads, sel.Sel.Name) {
						report(e, kind+" "+sel.Sel.Name)
					}
				}
			}
			if kind := trackedHash(e); kind != "" && !used[e] {
				report(e, kind+" handle")
			}
			if kind := trackedRecordCall(e); kind != "" {
				report(e, kind)
			}
		}
		return true
	})
}

// hashReads are the store hash methods that leave a hash as it is.
var hashReads = []string{"Get", "Len", "Keys"}

// trackedHash classifies a `X.Hash(recordsHash)` or `X.Hash(dagsHash)`
// call; it returns "" for any other expression.
func trackedHash(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Hash" {
		return ""
	}
	arg, _ := call.Args[0].(*ast.Ident)
	switch {
	case arg == nil:
		return ""
	case arg.Name == "recordsHash":
		return "record-hash"
	case arg.Name == "dagsHash":
		return "graph-journal"
	}
	return ""
}

// isRecordsField matches the record map selector `X.records`.
func isRecordsField(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "records"
}

// trackedRecordCall classifies the other tracked calls: a delete from
// the record map, or a lifecycle publish.
func trackedRecordCall(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 && isRecordsField(call.Args[0]) {
		return "record delete"
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "publish" {
		return "lifecycle publish"
	}
	return ""
}
