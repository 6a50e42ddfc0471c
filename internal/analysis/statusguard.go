package analysis

import (
	"go/ast"
)

// AnalyzerStatusGuard enforces the one-writer invariant of task
// records in internal/service: only Service.transition may write the
// record hash (`X.Hash(recordsHash).Set/SetTTL/Del`), write or delete
// an entry of the in-memory record map (`X.records[k] = v`,
// `delete(X.records, k)`), or publish a task lifecycle event
// (`X.publish(...)`). transition applies each move under one lock, so
// a stale or backwards move can never overwrite a landed terminal
// status and events never publish out of order with the record. The
// one other publisher is publishDAG, which carries graph-level events
// (DAGRunning/DAGSuccess/DAGFailed) and is not tracked.
//
// The check is lexical: a tracked operation is allowed only in the
// body of the function named transition (or, for publishes, named
// publishDAG). Helpers do not inherit the permission, and function
// literals — which run at an unknown time, outside the enclosing
// critical section — never have it.
var AnalyzerStatusGuard = &Analyzer{
	Name: "statusguard",
	Doc:  "task records and lifecycle events are written only by Service.transition",
	Run:  runStatusGuard,
}

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
		if fn == "transition" || fn == "publishDAG" && kind == "lifecycle publish" {
			return
		}
		pass.Reportf(n.Pos(), "%s outside transition; task records and lifecycle events have one writer (Service.transition)", kind)
	}
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
			if kind := trackedRecordCall(e); kind != "" {
				report(e, kind)
			}
		}
		return true
	})
}

// isRecordsField matches the record map selector `X.records`.
func isRecordsField(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "records"
}

// trackedRecordCall classifies the tracked calls: a delete from the
// record map, a Set/SetTTL/Del on the recordsHash hash, or a lifecycle
// publish.
func trackedRecordCall(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 && isRecordsField(call.Args[0]) {
		return "record delete"
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Set", "SetTTL", "Del":
		inner, ok := sel.X.(*ast.CallExpr)
		if !ok || len(inner.Args) != 1 {
			return ""
		}
		innerSel, ok := inner.Fun.(*ast.SelectorExpr)
		if !ok || innerSel.Sel.Name != "Hash" {
			return ""
		}
		if arg, ok := inner.Args[0].(*ast.Ident); ok && arg.Name == "recordsHash" {
			return "record-hash " + sel.Sel.Name
		}
	case "publish":
		return "lifecycle publish"
	}
	return ""
}
