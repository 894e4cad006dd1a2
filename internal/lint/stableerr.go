package lint

import (
	"go/ast"
	"go/types"
)

// StableErr flags dropped errors from the stable-storage and bus APIs. The
// fail-stop guarantee of the architecture depends on every storage or bus
// fault propagating to a halt path (or to the caller, which owns one): an
// error assigned to _ or discarded in an expression statement silently
// converts a detectable fault into wrong behaviour, exactly what the
// fail-stop abstraction exists to prevent.
var StableErr = &Analyzer{
	Name: "stableerr",
	Doc: "Errors returned by stable.Store/Region/ReplicatedStore/Medium, " +
		"bus.Bus/Endpoint, scram command helpers, and the membership record " +
		"codec and re-verifier must be used — returned, inspected, or fed to a halt " +
		"path — never assigned to _ or dropped.",
	Run: runStableErr,
}

// stableErrRecvTypes lists, per defining package, the receiver types whose
// error-returning methods are in scope.
var stableErrRecvTypes = map[string]map[string]bool{
	"repro/internal/stable": {
		"Store":           true,
		"Region":          true,
		"ReplicatedStore": true,
		"Medium":          true,
		"MemMedium":       true,
		"FaultyMedium":    true,
	},
	"repro/internal/bus": {
		"Bus":      true,
		"Endpoint": true,
	},
}

// stableErrFuncs lists in-scope package-level functions.
var stableErrFuncs = map[string]map[string]bool{
	"repro/internal/scram": {
		"ReadCommand": true,
	},
	"repro/internal/membership": {
		"DecodeRecord": true,
		"Verify":       true,
	},
}

func runStableErr(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, idx := stableErrCallee(pass, call); idx >= 0 {
						pass.Reportf(call.Pos(), "error from %s is dropped: stable-storage and bus errors must reach a halt path or the caller (fail-stop boundary)", name)
					}
				}
			case *ast.AssignStmt:
				checkBlankErrAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBlankErrAssign flags assignments whose right side is a single
// in-scope call and whose identifier at the call's error position is blank.
func checkBlankErrAssign(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, idx := stableErrCallee(pass, call)
	if idx < 0 || idx >= len(assign.Lhs) {
		return
	}
	if id, ok := assign.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(assign.Pos(), "error from %s is assigned to _: stable-storage and bus errors must reach a halt path or the caller (fail-stop boundary)", name)
	}
}

// stableErrCallee reports whether the call targets an in-scope API; it
// returns a printable callee name and the index of the error result, or -1
// when the call is out of scope or returns no error.
func stableErrCallee(pass *Pass, call *ast.CallExpr) (string, int) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", -1
	}
	sig := fn.Type().(*types.Signature)
	errIdx := errorResultIndex(sig)
	if errIdx < 0 {
		return "", -1
	}
	pkgPath := fn.Pkg().Path()
	if recv := sig.Recv(); recv != nil {
		recvName := receiverTypeName(recv.Type())
		if types, ok := stableErrRecvTypes[pkgPath]; ok && types[recvName] {
			return "(" + pkgPath + "." + recvName + ")." + fn.Name(), errIdx
		}
		return "", -1
	}
	if funcs, ok := stableErrFuncs[pkgPath]; ok && funcs[fn.Name()] {
		return pkgPath + "." + fn.Name(), errIdx
	}
	return "", -1
}

// errorResultIndex returns the index of the last result of type error, or
// -1 when the signature returns none.
func errorResultIndex(sig *types.Signature) int {
	results := sig.Results()
	for i := results.Len() - 1; i >= 0; i-- {
		if named, ok := results.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return i
		}
	}
	return -1
}

// receiverTypeName returns the name of a method receiver's base type,
// through a pointer if present.
func receiverTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
