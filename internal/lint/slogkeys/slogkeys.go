// Package slogkeys defines the slogkeys analyzer: structured log keys are
// compile-time snake_case string constants.
//
// Slow-request drill-down greps the access log's request_id and follows
// its trace_id into the tracer. That only works while every call site
// spells its keys identically, which is why the shared constant set lives
// in internal/obs (LogKeyRequestID, LogKeyTraceID etc.) and why a key
// built at runtime (fmt.Sprintf, concatenation) is a finding:
// it cannot be audited, indexed or grepped. Named constants and literals
// both satisfy the analyzer as long as the value is snake_case.
package slogkeys

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"mineassess/internal/lint/analysis"
)

// Analyzer enforces constant snake_case slog keys.
var Analyzer = &analysis.Analyzer{
	Name: "slogkeys",
	Doc: `require constant snake_case keys at every slog call site

Keys of slog attr constructors (slog.String, slog.Int, ...) and of the
variadic key/value forms (Logger.Info, slog.Warn, Logger.With, ...) must
be compile-time string constants matching ^[a-z][a-z0-9]*(_[a-z0-9]+)*$ —
prefer the shared obs.LogKey* constants. Runtime-built keys
(fmt.Sprintf, concatenation of non-constants) are findings.`,
	Run: run,
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// attrCtors maps slog attr-constructor names to the index of their key
// argument.
var attrCtors = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Uint64": true,
	"Float64": true, "Bool": true, "Duration": true, "Time": true,
	"Any": true, "Group": true,
}

// kvStart maps the variadic key/value entry points to the index of their
// first key argument.
var kvStart = map[string]int{
	"Debug": 1, "Info": 1, "Warn": 1, "Error": 1,
	"DebugContext": 2, "InfoContext": 2, "WarnContext": 2, "ErrorContext": 2,
	"Log": 3, "With": 0,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncFor(pass.TypesInfo, call)
			if fn == nil || !analysis.PkgPathTail(fn.Pkg(), "slog") {
				return true
			}
			recv := analysis.ReceiverType(fn)
			switch {
			case recv == nil && attrCtors[fn.Name()]:
				if len(call.Args) > 0 {
					checkKey(pass, call.Args[0])
				}
				if fn.Name() == "Group" && len(call.Args) > 1 {
					checkKVs(pass, call.Args[1:])
				}
			case recv == nil || analysis.IsNamed(recv, "slog", "Logger"):
				if start, ok := kvStart[fn.Name()]; ok && len(call.Args) > start {
					checkKVs(pass, call.Args[start:])
				}
			}
			return true
		})
	}
	return nil
}

// checkKVs walks a variadic alternating key/value tail. An inline
// slog.Attr consumes one slot; anything else is a key followed by its
// value.
func checkKVs(pass *analysis.Pass, args []ast.Expr) {
	for i := 0; i < len(args); {
		if tv, ok := pass.TypesInfo.Types[args[i]]; ok && analysis.IsNamed(tv.Type, "slog", "Attr") {
			i++
			continue
		}
		checkKey(pass, args[i])
		i += 2
	}
}

// checkKey requires expr to be a constant snake_case string.
func checkKey(pass *analysis.Pass, expr ast.Expr) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return
	}
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		// Ellipsis-expanded []any args land here too; only flag string-ish
		// expressions so `logger.Info(msg, args...)` passthroughs stay legal.
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			pass.Reportf(expr.Pos(),
				"slog key must be a compile-time constant string (use the shared obs.LogKey* constants)")
		}
		return
	}
	key := constant.StringVal(tv.Value)
	if !snakeCase.MatchString(key) {
		pass.Reportf(expr.Pos(), "slog key %q is not snake_case", key)
	}
}
