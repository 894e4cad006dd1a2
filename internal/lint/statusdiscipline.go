package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// StatusDiscipline restricts writes of the kernel's stable-storage
// namespace to the kernel itself. The configuration_status variables
// (scram/cmd/<app>) and the persisted kernel state (scram/state) drive the
// three-phase reconfiguration protocol; a raw Put from any other package
// would let an application forge or corrupt a command outside the kernel's
// phase-transition helpers, defeating the protocol's single-writer
// assumption. Reads stay unrestricted: surviving processors legitimately
// poll a failed processor's storage.
var StatusDiscipline = &Analyzer{
	Name: "statusdiscipline",
	Doc: "Keys under scram/ in stable storage may only be written through the " +
		"scram kernel's own command and state writes, " +
		"never by raw Put/Delete calls from other packages.",
	Run: runStatusDiscipline,
}

// storeWriteMethods are the staging mutators of stable.Store and
// stable.Region.
var storeWriteMethods = map[string]bool{
	"Put":       true,
	"PutString": true,
	"PutInt64":  true,
	"PutJSON":   true,
	"Delete":    true,
}

func runStatusDiscipline(pass *Pass) error {
	if pass.Pkg.Name() == "scram" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/stable" {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				return true
			}
			recvName := receiverTypeName(recv.Type())
			if recvName != "Store" && recvName != "Region" {
				return true
			}
			key, isConst := constString(pass, call.Args[0])
			if !isConst {
				return true
			}
			switch {
			case storeWriteMethods[fn.Name()] && strings.HasPrefix(key, "scram/"):
				pass.Reportf(call.Pos(), "raw %s of kernel key %q from package %q: configuration_status variables may only be written through the scram package's helpers", fn.Name(), key, pass.Pkg.Name())
			case fn.Name() == "Region" && (key == "scram" || strings.HasPrefix(key, "scram/")):
				pass.Reportf(call.Pos(), "Region(%q) from package %q grants write access to the kernel namespace: configuration_status variables may only be written through the scram package's helpers", key, pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}
