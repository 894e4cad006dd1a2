package scram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/det"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/statics"
)

// The reference planner below builds plans the way the kernel did before
// phase plans were compiled: every schedule comes from a direct call to
// statics.PhasePlan or statics.CompressedSchedule, and a compressed retarget
// saves and restores the executed halt windows explicitly. The equivalence
// test holds the table-backed planner to it.

func referencePlan(rs *spec.ReconfigSpec, seq int64, source, target spec.ConfigID, triggerFrame int64) (*plan, error) {
	srcCfg, ok := rs.Config(source)
	if !ok {
		return nil, fmt.Errorf("unknown source %q", source)
	}
	tgtCfg, ok := rs.Config(target)
	if !ok {
		return nil, fmt.Errorf("unknown target %q", target)
	}
	p := &plan{
		Seq:          seq,
		Source:       source,
		Target:       target,
		TriggerFrame: triggerFrame,
		HaltStart:    triggerFrame + 1,
		Apps:         make([]appWindows, len(rs.Apps)),
		ChainStart:   triggerFrame,
		ChainSource:  source,
	}
	for i, app := range rs.Apps {
		p.Apps[i] = appWindows{HaltStart: -1, HaltEnd: -1, PrepStart: -1, PrepEnd: -1, InitStart: -1, InitEnd: -1, Target: spec.SpecOff}
		if app.Virtual {
			p.Apps[i].Target = app.Specs[0].ID
		}
	}
	if rs.Compression {
		return p, referenceCompressed(rs, p, srcCfg, tgtCfg)
	}
	starts, durs, length, err := statics.PhasePlan(rs, srcCfg, spec.PhaseHalt)
	if err != nil {
		return nil, err
	}
	p.HaltEnd = triggerFrame + int64(length)
	for id, off := range starts {
		aw := &p.Apps[appIndex(rs, id)]
		aw.HaltStart = p.HaltStart + int64(off)
		aw.HaltEnd = aw.HaltStart + int64(durs[id]) - 1
	}
	return p, referenceEntry(rs, p, tgtCfg, p.HaltEnd+1)
}

func referenceCompressed(rs *spec.ReconfigSpec, p *plan, srcCfg, tgtCfg *spec.Configuration) error {
	sched, length, err := statics.CompressedSchedule(rs, srcCfg, tgtCfg)
	if err != nil {
		return err
	}
	base := p.TriggerFrame + 1
	p.HaltEnd, p.PrepEnd = p.TriggerFrame, p.TriggerFrame
	p.InitStart = base + int64(length)
	p.InitEnd = p.TriggerFrame + int64(length)
	p.PrepStart = p.InitEnd
	for _, id := range det.SortedKeys(sched) {
		s, aw := sched[id], &p.Apps[appIndex(rs, id)]
		if app, _ := rs.AppByID(id); !app.Virtual {
			aw.Target = spec.SpecOff
			if t, ok := tgtCfg.SpecOf(id); ok {
				aw.Target = t
			}
		}
		aw.HaltStart, aw.HaltEnd = window(base, s.HaltStart, s.HaltEnd)
		aw.PrepStart, aw.PrepEnd = window(base, s.PrepStart, s.PrepEnd)
		aw.InitStart, aw.InitEnd = window(base, s.InitStart, s.InitEnd)
		p.HaltEnd = max(p.HaltEnd, aw.HaltEnd)
		p.PrepEnd = max(p.PrepEnd, aw.PrepEnd)
		if aw.InitStart >= 0 && aw.InitStart < p.InitStart {
			p.InitStart = aw.InitStart
		}
	}
	if p.PrepStart < p.InitStart {
		p.PrepStart = p.HaltEnd + 1
	}
	return nil
}

func referenceEntry(rs *spec.ReconfigSpec, p *plan, tgtCfg *spec.Configuration, prepStart int64) error {
	prepStarts, prepDur, prepLen, err := statics.PhasePlan(rs, tgtCfg, spec.PhasePrepare)
	if err != nil {
		return err
	}
	initStarts, initDur, initLen, err := statics.PhasePlan(rs, tgtCfg, spec.PhaseInit)
	if err != nil {
		return err
	}
	p.PrepStart = prepStart
	p.PrepEnd = prepStart + int64(prepLen) - 1
	p.InitStart = p.PrepEnd + 1
	p.InitEnd = p.PrepEnd + int64(initLen)
	for i, app := range rs.Apps {
		aw := &p.Apps[i]
		aw.PrepStart, aw.PrepEnd, aw.InitStart, aw.InitEnd = -1, -1, -1, -1
		if !app.Virtual {
			aw.Target = spec.SpecOff
			if t, ok := tgtCfg.SpecOf(app.ID); ok {
				aw.Target = t
			}
		}
	}
	for id, off := range prepStarts {
		aw := &p.Apps[appIndex(rs, id)]
		aw.PrepStart = p.PrepStart + int64(off)
		aw.PrepEnd = aw.PrepStart + int64(prepDur[id]) - 1
	}
	for id, off := range initStarts {
		aw := &p.Apps[appIndex(rs, id)]
		aw.InitStart = p.InitStart + int64(off)
		aw.InitEnd = aw.InitStart + int64(initDur[id]) - 1
	}
	return nil
}

func referenceRetarget(rs *spec.ReconfigSpec, p *plan, newTarget spec.ConfigID, seq, frameNow int64) error {
	tgtCfg, ok := rs.Config(newTarget)
	if !ok {
		return fmt.Errorf("unknown retarget %q", newTarget)
	}
	p.Target, p.Seq, p.Retargeted = newTarget, seq, true
	if !rs.Compression {
		return referenceEntry(rs, p, tgtCfg, max(frameNow+1, p.HaltEnd+1))
	}
	srcCfg, _ := rs.Config(p.Source)
	halts := append([]appWindows(nil), p.Apps...)
	if err := referenceCompressed(rs, p, srcCfg, tgtCfg); err != nil {
		return err
	}
	var shift int64
	for _, aw := range p.Apps {
		if aw.PrepStart >= 0 && frameNow+1-aw.PrepStart > shift {
			shift = frameNow + 1 - aw.PrepStart
		}
	}
	for i := range p.Apps {
		aw := &p.Apps[i]
		aw.HaltStart, aw.HaltEnd = halts[i].HaltStart, halts[i].HaltEnd
		if aw.PrepStart >= 0 {
			aw.PrepStart += shift
			aw.PrepEnd += shift
		}
		if aw.InitStart >= 0 {
			aw.InitStart += shift
			aw.InitEnd += shift
		}
	}
	p.PrepEnd += shift
	p.InitStart += shift
	p.InitEnd += shift
	return nil
}

// clonePlan deep-copies a plan so two retargets start from equal state.
func clonePlan(p *plan) *plan {
	cp := *p
	cp.Apps = append([]appWindows(nil), p.Apps...)
	return &cp
}

// planPresets are the specifications the equivalence test covers: the
// spectest presets, the compressed protocol, the immediate retarget policy,
// and random specifications of both protocols.
func planPresets(t *testing.T) map[string]*spec.ReconfigSpec {
	t.Helper()
	out := map[string]*spec.ReconfigSpec{
		"threeconfig":         spectest.ThreeConfig(),
		"threeconfig-spares":  spectest.ThreeConfigWithSpares(1),
		"threeconfig-spares4": spectest.ThreeConfigWithSpares(4),
	}
	compressed := spectest.ThreeConfig()
	compressed.Compression = true
	immediate := spectest.ThreeConfig()
	immediate.Retarget = spec.RetargetImmediate
	out["threeconfig-compressed"], out["threeconfig-immediate"] = compressed, immediate
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := spectest.Random(rng, 1+rng.Intn(5), 2+rng.Intn(3), 2+rng.Intn(3))
		rs.Compression = seed%2 == 1
		out[fmt.Sprintf("random-%d", seed)] = rs
	}
	for name, rs := range out {
		if err := spectest.SizeTransitions(rs, rand.New(rand.NewSource(1))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

// TestCompiledPlansMatchDirectComputation holds the plan table to the
// statics it compiles: for every preset and every declared (source, target)
// pair, the plan built from the compiled table — and its retarget toward
// every other configuration — deep-equals the plan built by calling
// statics.PhasePlan / CompressedSchedule directly. Every pair is built twice
// from one table, so an entry a plan build corrupted would show on reuse.
func TestCompiledPlansMatchDirectComputation(t *testing.T) {
	for name, rs := range planPresets(t) {
		report, err := statics.Check(rs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans := report.Plans()
		for pass := 0; pass < 2; pass++ {
			for _, tr := range rs.Transitions {
				const trigger = 40
				got, err := buildPlan(plans, 1, tr.From, tr.To, trigger)
				if err != nil {
					t.Fatalf("%s %s->%s: %v", name, tr.From, tr.To, err)
				}
				want, err := referencePlan(rs, 1, tr.From, tr.To, trigger)
				if err != nil {
					t.Fatalf("%s %s->%s reference: %v", name, tr.From, tr.To, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s->%s: compiled plan\n %+v\nwant\n %+v", name, tr.From, tr.To, got, want)
				}
				frameNow := int64(trigger)
				if got.HaltStart+1 <= got.InitStart {
					frameNow = got.HaltStart
				}
				for _, c := range rs.Configs {
					if c.ID == tr.To {
						continue
					}
					g, w := clonePlan(got), clonePlan(want)
					gerr := g.retarget(plans, c.ID, 2, frameNow)
					werr := referenceRetarget(rs, w, c.ID, 2, frameNow)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s %s->%s retarget %s: error %v, reference %v", name, tr.From, tr.To, c.ID, gerr, werr)
					}
					if gerr == nil && !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %s->%s retarget %s at %d: compiled plan\n %+v\nwant\n %+v", name, tr.From, tr.To, c.ID, frameNow, g, w)
					}
				}
			}
		}
	}
}
