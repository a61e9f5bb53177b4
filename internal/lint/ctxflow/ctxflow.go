// Package ctxflow defines the ctxflow analyzer: request-scoped code must
// thread the request context, not mint a fresh one.
//
// The tracing layer (PR 10) propagates the active span through
// context.Context: the HTTP middleware roots a span in the request
// context, the engines' *Ctx methods open children under it, and the
// journal reconstructs commit phases from it. A context.Background() (or
// TODO()) inside an HTTP handler or a *Ctx engine method silently severs
// that chain — the code still works, but the trace tree ends there and
// the tail sampler never sees the downstream latency. Sites that must
// outlive the request (post-persist event publishes) detach with
// trace.Detach(ctx), which keeps the trace and request-ID linkage while
// dropping cancelation; minting Background is never the right tool inside
// request scope.
//
// The same severing hides one call away: an operation with a context form
// keeps a context-free shim (Start beside StartCtx) for callers that have
// no request, and the shim mints Background itself. Inside request scope a
// call to M whose receiver type also has MCtx is flagged too.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"mineassess/internal/lint/analysis"
)

// Analyzer flags context.Background()/TODO() inside request-scoped code,
// and calls there to a method M whose receiver type also has MCtx.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: `forbid minting fresh contexts inside request-scoped functions

HTTP handlers (any function taking http.ResponseWriter and *http.Request)
and context-threading engine methods (name ending in "Ctx" with a
context.Context parameter) receive the request context; calling
context.Background() or context.TODO() there severs trace propagation and
cancelation. Thread the incoming ctx, or use trace.Detach(ctx) for work
that must outlive the request without losing trace linkage. Calling a
context-free method M there when the receiver's type also has MCtx drops
the ctx the same way, inside the shim; call MCtx instead.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !requestScoped(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.FuncFor(pass.TypesInfo, call)
				for _, name := range [...]string{"Background", "TODO"} {
					if analysis.IsPkgFunc(fn, "context", name) {
						pass.Reportf(call.Pos(),
							"context.%s() inside request-scoped %s severs trace propagation: thread the request ctx (or trace.Detach it for post-request work)",
							name, fd.Name.Name)
					}
				}
				if ctxName, ok := hasCtxForm(pass, call, fn); ok {
					pass.Reportf(call.Pos(),
						"%s inside request-scoped %s drops the request ctx: call %s",
						fn.Name(), fd.Name.Name, ctxName)
				}
				return true
			})
		}
	}
	return nil
}

// hasCtxForm reports whether call invokes a method M, not itself a ctx
// form, on a receiver whose type also has the method MCtx, and returns
// that name.
func hasCtxForm(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || analysis.ReceiverType(fn) == nil || strings.HasSuffix(fn.Name(), "Ctx") {
		return "", false
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return "", false
	}
	name := fn.Name() + "Ctx"
	obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), name)
	_, isFunc := obj.(*types.Func)
	return name, isFunc
}

// requestScoped reports whether fd is an HTTP handler (has both an
// http.ResponseWriter and a *http.Request parameter) or a
// context-threading engine method (name ends in "Ctx" and takes a
// context.Context).
func requestScoped(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	var hasWriter, hasRequest, hasCtx bool
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		switch {
		case analysis.IsNamed(tv.Type, "http", "ResponseWriter"):
			hasWriter = true
		case analysis.IsNamed(tv.Type, "http", "Request"):
			hasRequest = true
		case analysis.IsNamed(tv.Type, "context", "Context"):
			hasCtx = true
		}
	}
	if hasWriter && hasRequest {
		return true
	}
	return hasCtx && strings.HasSuffix(fd.Name.Name, "Ctx")
}
