package scram

import (
	"math/rand"
	"testing"

	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/statics"
)

// TestPlanInvariantsProperty checks, over random specifications and all
// their transition pairs, the structural invariants every plan must have:
// phases abut with no gaps, every participating application's window lies
// inside its phase, windows respect the declared durations, and the total
// window matches the static RequiredWindow computation.
func TestPlanInvariantsProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := spectest.Random(rng, 1+rng.Intn(5), 2+rng.Intn(3), 2+rng.Intn(3))
		trigger := int64(rng.Intn(100))
		for _, tr := range rs.Transitions {
			p, err := buildPlan(statics.NewPlans(rs), 1, tr.From, tr.To, trigger)
			if err != nil {
				t.Fatalf("seed %d %s->%s: %v", seed, tr.From, tr.To, err)
			}
			// Phases abut.
			if p.HaltStart != trigger+1 {
				t.Fatalf("halt starts at %d, want %d", p.HaltStart, trigger+1)
			}
			if p.PrepStart != p.HaltEnd+1 || p.InitStart != p.PrepEnd+1 {
				t.Fatalf("phases do not abut: %+v", p)
			}
			if p.HaltEnd < p.HaltStart || p.PrepEnd < p.PrepStart || p.InitEnd < p.InitStart {
				t.Fatalf("negative phase length: %+v", p)
			}
			// The full window matches the static analysis (buffer
			// policy: no retarget allowance).
			window := p.InitEnd - p.TriggerFrame + 1
			if tr.MaxFrames < int(window) {
				t.Fatalf("seed %d %s->%s: plan window %d exceeds declared bound %d",
					seed, tr.From, tr.To, window, tr.MaxFrames)
			}
			// Per-app windows stay inside their phases and respect
			// declared durations.
			srcCfg, _ := rs.Config(tr.From)
			tgtCfg, _ := rs.Config(tr.To)
			for i, aw := range p.Apps {
				app := &rs.Apps[i]
				id := app.ID
				if app.Virtual {
					continue
				}
				if aw.HaltStart >= 0 {
					if aw.HaltStart < p.HaltStart || aw.HaltEnd > p.HaltEnd {
						t.Fatalf("%s halt window [%d,%d] outside phase [%d,%d]",
							id, aw.HaltStart, aw.HaltEnd, p.HaltStart, p.HaltEnd)
					}
					srcSpec, _ := app.Spec(srcCfg.Assignment[id])
					if got := aw.HaltEnd - aw.HaltStart + 1; got != int64(srcSpec.HaltFrames) {
						t.Fatalf("%s halt duration %d, declared %d", id, got, srcSpec.HaltFrames)
					}
				}
				if aw.InitStart >= 0 {
					if aw.InitStart < p.InitStart || aw.InitEnd > p.InitEnd {
						t.Fatalf("%s init window [%d,%d] outside phase [%d,%d]",
							id, aw.InitStart, aw.InitEnd, p.InitStart, p.InitEnd)
					}
					tgtSpec, _ := app.Spec(tgtCfg.Assignment[id])
					if got := aw.InitEnd - aw.InitStart + 1; got != int64(tgtSpec.InitFrames) {
						t.Fatalf("%s init duration %d, declared %d", id, got, tgtSpec.InitFrames)
					}
				}
				// Dependency ordering within the init phase.
				for _, d := range rs.DepsForPhase(spec.PhaseInit) {
					if d.Dependent != id || aw.InitStart < 0 {
						continue
					}
					j := appIndex(rs, d.Independent)
					if j < 0 || p.Apps[j].InitStart < 0 {
						continue
					}
					if indep := p.Apps[j]; aw.InitStart <= indep.InitEnd {
						t.Fatalf("dependency violated: %s init [%d,%d] overlaps %s init end %d",
							id, aw.InitStart, aw.InitEnd, d.Independent, indep.InitEnd)
					}
				}
			}
		}
	}
}
