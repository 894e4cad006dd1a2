package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation comment from a fixture line and quotedRe
// the quoted (or backquoted) regular expressions inside it. The convention
// follows golang.org/x/tools/go/analysis/analysistest: a comment
//
//	// want "regexp" `regexp`
//
// on a line declares that each regexp must match the message of exactly one
// diagnostic reported on that line, and that the line reports no other
// diagnostics.
var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quotedRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")
)

// expectation is one unsatisfied want: a regexp awaiting a diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans every fixture file for want comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quotedRe.FindAllStringSubmatch(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted regexp", e.Name(), i+1)
			}
			for _, q := range quoted {
				src := q[1]
				if src == "" {
					src = q[2]
				}
				re, err := regexp.Compile(src)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, src, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runFixture type-checks testdata/src/<fixture> with the real module's
// packages importable, runs the given analyzers together, and checks the
// diagnostics against the fixture's want comments — every want matched,
// nothing unexpected.
func runFixture(t *testing.T, as []*Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	wants := parseWants(t, dir)

	loader := NewLoader(".")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := Run(as, []*Package{pkg})
	if err != nil {
		t.Fatalf("running analyzers on fixture %s: %v", fixture, err)
	}

	var problems []string
	for _, d := range diags {
		base := filepath.Base(d.File)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic at %s:%d: %s", base, d.Line, d.Message))
		}
	}
	for _, w := range wants {
		if !w.hit {
			problems = append(problems, fmt.Sprintf("no diagnostic at %s:%d matched %q", w.file, w.line, w.re))
		}
	}
	if len(problems) > 0 {
		t.Errorf("fixture %s:\n  %s", fixture, strings.Join(problems, "\n  "))
	}
}

func TestFrameDetFixture(t *testing.T)  { runFixture(t, []*Analyzer{FrameDet}, "framedet") }
func TestStableErrFixture(t *testing.T) { runFixture(t, []*Analyzer{StableErr}, "stableerr") }
func TestNoFreeGoroutineFixture(t *testing.T) {
	runFixture(t, []*Analyzer{NoFreeGoroutine}, "nofreegoroutine")
}
func TestNoFreeGoroutineServeFixture(t *testing.T) {
	runFixture(t, []*Analyzer{NoFreeGoroutine}, "serve")
}

// TestNoFreeGoroutineSingleOwnerFixture pins the lock rule: a mutex field in
// a single-owner package is flagged, an audited atomic is allowed.
func TestNoFreeGoroutineSingleOwnerFixture(t *testing.T) {
	runFixture(t, []*Analyzer{NoFreeGoroutine}, "singleowner")
}
func TestStatusDisciplineFixture(t *testing.T) {
	runFixture(t, []*Analyzer{StatusDiscipline}, "statusdiscipline")
}

// TestAllocFreeFixture pins the interprocedural layer end to end: the
// callgraph must reach a hook through func-value dispatch on a registered
// method value and a task through interface dispatch, every allocation
// class must be flagged there, and the parameter/field-backed append
// exemption, pointer-shaped boxing exemption, allow hatch, and
// unreachable-code silence must all hold.
func TestAllocFreeFixture(t *testing.T) { runFixture(t, []*Analyzer{AllocFree}, "allocfree") }

// TestEpochGuardFixture pins the epoch discipline against the real
// scram.Command type imported from the module.
func TestEpochGuardFixture(t *testing.T) { runFixture(t, []*Analyzer{EpochGuard}, "epochguard") }

// TestTelemetryFixture pins the telemetry package's membership in both the
// frame-deterministic and the frame-synchronous scopes: an event-recording
// helper that ranges over an attribute map, reads the wall clock, or spawns
// a goroutine must be flagged exactly as in the kernel packages.
func TestTelemetryFixture(t *testing.T) {
	runFixture(t, []*Analyzer{FrameDet, NoFreeGoroutine}, "telemetry")
}

// TestMembershipFixture pins the membership package's lint scope: it is
// frame-deterministic and frame-synchronous like the kernel packages, and
// its record codec and manager errors are fail-stop boundaries the stableerr
// analyzer guards.
func TestMembershipFixture(t *testing.T) {
	runFixture(t, []*Analyzer{FrameDet, NoFreeGoroutine, StableErr}, "membership")
}

// TestFrameDetSkipsOtherPackages pins the package-name gate: the same
// nondeterminism that fires inside a frame-deterministic package is legal in
// packages outside the frame abstraction (campaign drivers, tooling).
func TestFrameDetSkipsOtherPackages(t *testing.T) {
	loader := NewLoader(".")
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "freepkg"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Analyzer{FrameDet, NoFreeGoroutine}, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("packages outside the frame model must not be flagged, got %d diagnostics: %v", len(diags), diags)
	}
}
