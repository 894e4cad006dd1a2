package lint

import (
	"go/ast"
	"go/types"
)

// frameSyncPkgs names the packages implementing the frame-synchronous
// model. The model has no free-running concurrency: everything executes in
// lock step with the frame, so a `go` statement in these packages is either
// a bug or an audited exception (the self-checking pair's replica launch)
// that must carry a //lint:allow annotation naming its justification.
var frameSyncPkgs = map[string]bool{
	"scram":      true,
	"core":       true,
	"fta":        true,
	"frame":      true,
	"failstop":   true,
	"telemetry":  true,
	"membership": true,
	// campaign is not frame-synchronous, but its worker pool is the one
	// place the simulator deliberately multiplies goroutines; scoping the
	// analyzer over it forces every launch to carry an audited allow.
	"campaign": true,
	// serve (the live telemetry plane) is likewise off-path by design, but
	// it sits right next to the frame loop's publish hook; scoping it keeps
	// its listener launch — and any future one — audited.
	"serve": true,
	// fleet multiplexes many frame-synchronous systems over shard workers;
	// scoping it forces every launch (the scheduler loop, the shard
	// workers) to carry an audited allow.
	"fleet": true,
	// chaos drives whole hosts through crash-restart storms; it must stay
	// synchronous itself (the hosts own all concurrency), so any launch
	// added here needs an audited allow.
	"chaos": true,
}

// singleOwnerPkgs names the packages whose objects belong to one system,
// and so to one goroutine at a time: the frame-synchronous packages except
// the four that own real concurrency (campaign, serve, fleet, chaos), plus
// the system's components outside that scope (stable, envmon, bus,
// avionics). The owner of a system serializes hand-offs with its own
// synchronization, so a lock or an atomic declared in these packages is
// either a bug or an audited exception carrying a //lint:allow annotation.
var singleOwnerPkgs = map[string]bool{
	"scram":      true,
	"core":       true,
	"fta":        true,
	"frame":      true,
	"failstop":   true,
	"telemetry":  true,
	"membership": true,
	"stable":     true,
	"envmon":     true,
	"bus":        true,
	"avionics":   true,
}

// NoFreeGoroutine forbids goroutine launches in the frame-synchronous
// packages and lock or atomic values in the single-owner packages.
var NoFreeGoroutine = &Analyzer{
	Name: "nofreegoroutine",
	Doc: "Forbid go statements in the frame-synchronous packages (scram, core, " +
		"fta, frame, failstop, telemetry, membership): the model has no free-running concurrency. " +
		"Forbid sync.Mutex, sync.RWMutex and sync/atomic values in the single-owner packages " +
		"(the same, plus stable, envmon, bus, avionics): a system belongs to one goroutine at a time. " +
		"Audited exceptions carry a //lint:allow nofreegoroutine annotation.",
	Run: runNoFreeGoroutine,
}

func runNoFreeGoroutine(pass *Pass) error {
	name := pass.Pkg.Name()
	if frameSyncPkgs[name] {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "go statement in frame-synchronous package %q: the fail-stop frame model has no free-running concurrency", name)
				}
				return true
			})
		}
	}
	if singleOwnerPkgs[name] {
		for id, obj := range pass.TypesInfo.Defs {
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			if lock := syncValueType(v.Type()); lock != "" {
				pass.Reportf(id.Pos(), "%s value in single-owner package %q: a system belongs to one goroutine at a time, so its owner serializes hand-offs", lock, name)
			}
		}
	}
	return nil
}

// syncValueType names t when it is sync.Mutex, sync.RWMutex or any
// sync/atomic type, and returns "" otherwise.
func syncValueType(t types.Type) string {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	switch name := n.Obj().Name(); n.Obj().Pkg().Path() {
	case "sync":
		if name == "Mutex" || name == "RWMutex" {
			return "sync." + name
		}
	case "sync/atomic":
		return "atomic." + name
	}
	return ""
}
