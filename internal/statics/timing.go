package statics

import (
	"fmt"
	"sort"

	"repro/internal/spec"
)

// RequiredWindow computes the worst-case reconfiguration window, in frames,
// for the transition from -> to: one trigger frame plus the critical paths
// of the halt, prepare, and initialize phases under the specification's
// dependency graph. Under the immediate retarget policy one worst-case
// retarget (an extra prepare of the most expensive possible intermediate
// target) is added, since the SCRAM permits at most one retarget per window
// and only before initialization begins. Callers evaluating many windows of
// one specification share a Plans table instead (Plans.RequiredWindow).
func RequiredWindow(rs *spec.ReconfigSpec, from, to spec.ConfigID) (int, error) {
	return NewPlans(rs).RequiredWindow(from, to)
}

// PhasePlan computes the schedule of one protocol phase for a
// configuration: each participating application's start offset (0-based
// frames into the phase), its duration in frames, and the phase's
// critical-path length. Participants execute in parallel except where a
// dependency orders them; a dependent application starts only after every
// independent it waits on has completed the phase.
//
// Participants: for the halt phase, every application running in the source
// configuration (weighted by its source specification's HaltFrames); for
// prepare and initialize, every application running in the target
// configuration (weighted by the target specification's frames). A
// configuration with no participants yields an empty schedule of length 1
// (one frame to acknowledge the phase).
func PhasePlan(rs *spec.ReconfigSpec, cfg *spec.Configuration, phase spec.Phase) (starts, durations map[spec.AppID]int, length int, err error) {
	weights, err := phaseWeights(rs, cfg, phase)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(weights) == 0 {
		return map[spec.AppID]int{}, map[spec.AppID]int{}, 1, nil
	}
	dist, length, err := dagLongestPath(weights, rs.DepsForPhase(phase))
	if err != nil {
		return nil, nil, 0, err
	}
	starts = make(map[spec.AppID]int, len(weights))
	// Keyed inserts with pure values commute: no sort needed.
	for id, d := range dist {
		starts[id] = d - weights[id]
	}
	return starts, weights, length, nil
}

// phaseWeights returns each participating application's duration for the
// phase.
func phaseWeights(rs *spec.ReconfigSpec, cfg *spec.Configuration, phase spec.Phase) (map[spec.AppID]int, error) {
	weights := make(map[spec.AppID]int)
	for _, appID := range cfg.RunningApps() {
		app, ok := rs.AppByID(appID)
		if !ok {
			return nil, fmt.Errorf("statics: configuration %q assigns unknown application %q", cfg.ID, appID)
		}
		sp, ok := app.Spec(cfg.Assignment[appID])
		if !ok {
			return nil, fmt.Errorf("statics: application %q lacks specification %q", appID, cfg.Assignment[appID])
		}
		switch phase {
		case spec.PhaseHalt:
			weights[appID] = sp.HaltFrames
		case spec.PhasePrepare:
			weights[appID] = sp.PrepareFrames
		case spec.PhaseInit:
			weights[appID] = sp.InitFrames
		default:
			return nil, fmt.Errorf("statics: phase %v has no window", phase)
		}
	}
	return weights, nil
}

// dagLongestPath computes, for every participating application, the longest
// node-weighted path through the dependency DAG ending at (and including)
// that application, plus the overall critical-path length. Dependencies
// naming non-participants are ignored (an app that is off in the relevant
// configuration gates nothing).
func dagLongestPath(weights map[spec.AppID]int, deps []spec.Dependency) (map[spec.AppID]int, int, error) {
	adj := make(map[spec.AppID][]spec.AppID)
	indeg := make(map[spec.AppID]int)
	// Constant inserts commute: no sort needed.
	for id := range weights {
		indeg[id] = 0
	}
	for _, d := range deps {
		if _, ok := weights[d.Independent]; !ok {
			continue
		}
		if _, ok := weights[d.Dependent]; !ok {
			continue
		}
		adj[d.Independent] = append(adj[d.Independent], d.Dependent)
		indeg[d.Dependent]++
	}
	// Kahn's algorithm with deterministic ordering.
	var queue []spec.AppID
	for id, deg := range indeg {
		if deg == 0 {
			queue = append(queue, id)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	dist := make(map[spec.AppID]int, len(weights))
	for _, id := range queue {
		dist[id] = weights[id]
	}
	processed := 0
	best := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		processed++
		if dist[cur] > best {
			best = dist[cur]
		}
		for _, next := range adj[cur] {
			if d := dist[cur] + weights[next]; d > dist[next] {
				dist[next] = d
			}
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if processed != len(weights) {
		return nil, 0, fmt.Errorf("statics: dependency graph is cyclic")
	}
	return dist, best, nil
}

// transitionTimings evaluates the timing obligation for every declared
// transition, filling the plan table with every schedule it evaluates.
func transitionTimings(plans *Plans) []TransitionTiming {
	rs := plans.Spec()
	out := make([]TransitionTiming, 0, len(rs.Transitions))
	for _, t := range rs.Transitions {
		required, err := plans.RequiredWindow(t.From, t.To)
		tt := TransitionTiming{
			From:           t.From,
			To:             t.To,
			DeclaredFrames: t.MaxFrames,
		}
		if err != nil {
			// A cyclic dependency graph is reported by its own
			// obligation; mark the timing un-dischargeable.
			tt.RequiredFrames = -1
			tt.OK = false
		} else {
			tt.RequiredFrames = required
			tt.OK = required <= t.MaxFrames
		}
		out = append(out, tt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// restrictionAnalysis computes the section 5.3 worst-case restriction time:
// the longest simple transition chain (by summed declared bounds) ending at
// a safe configuration, and the reduced bound max{T(i, s)} obtained by
// interposing the best safe configuration.
func restrictionAnalysis(rs *spec.ReconfigSpec) RestrictionAnalysis {
	var ra RestrictionAnalysis
	adj := transitionAdjacency(rs)
	safe := make(map[spec.ConfigID]bool)
	for _, s := range rs.SafeConfigs() {
		safe[s] = true
	}

	// Longest simple path ending at a safe configuration. Transition
	// graphs are small (configurations are designed by hand), so simple
	// enumeration is appropriate.
	var best []spec.ConfigID
	bestCost := 0
	var path []spec.ConfigID
	onPath := make(map[spec.ConfigID]bool)
	var dfs func(cur spec.ConfigID, cost int)
	dfs = func(cur spec.ConfigID, cost int) {
		path = append(path, cur)
		onPath[cur] = true
		if safe[cur] && len(path) > 1 && cost > bestCost {
			bestCost = cost
			best = append([]spec.ConfigID{}, path...)
		}
		for _, next := range adj[cur] {
			if onPath[next] {
				continue
			}
			t, _ := rs.T(cur, next)
			dfs(next, cost+t)
		}
		onPath[cur] = false
		path = path[:len(path)-1]
	}
	var starts []spec.ConfigID
	for i := range rs.Configs {
		starts = append(starts, rs.Configs[i].ID)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, s := range starts {
		dfs(s, 0)
	}
	ra.LongestChain = best
	ra.LongestChainFrames = bestCost

	// Interposition: for each safe configuration s with T(i, s) declared
	// for every non-safe i, the bound is max{T(i, s)}; pick the best s.
	for _, s := range rs.SafeConfigs() {
		bound, ok := InterposedBound(rs, s)
		if !ok {
			continue
		}
		if ra.InterposedSafe == "" || bound < ra.InterposedBoundFrames {
			ra.InterposedSafe = s
			ra.InterposedBoundFrames = bound
		}
	}
	return ra
}

// InterposedBound computes the paper's max{T(i, s)} bound for interposing
// the safe configuration s: if every non-safe configuration i declares a
// transition to s, the worst-case restriction after any single failure is
// one hop, bounded by the largest such T. The second result is false if some
// configuration has no declared transition to s.
func InterposedBound(rs *spec.ReconfigSpec, s spec.ConfigID) (int, bool) {
	bound := 0
	for i := range rs.Configs {
		cfg := &rs.Configs[i]
		if cfg.ID == s {
			continue
		}
		t, ok := rs.T(cfg.ID, s)
		if !ok {
			return 0, false
		}
		if t > bound {
			bound = t
		}
	}
	return bound, true
}

// Interpose returns a copy of the specification in which every choice-table
// entry that would move directly between two non-safe configurations is
// redirected to the safe configuration s, realizing the section 5.3
// "interposing a safe configuration Cs in between any transition between two
// unsafe configurations". The caller remains responsible for declaring the
// transitions the redirected entries require (Check will verify coverage).
func Interpose(rs *spec.ReconfigSpec, s spec.ConfigID) (*spec.ReconfigSpec, error) {
	safeCfg, ok := rs.Config(s)
	if !ok {
		return nil, fmt.Errorf("statics: unknown configuration %q", s)
	}
	if !safeCfg.Safe {
		return nil, fmt.Errorf("statics: configuration %q is not safe", s)
	}
	isSafe := make(map[spec.ConfigID]bool)
	for _, id := range rs.SafeConfigs() {
		isSafe[id] = true
	}
	out := *rs
	out.Choice = make(spec.ChoiceTable, len(rs.Choice))
	// Keyed inserts with pure values commute at both levels: no sorts
	// needed to keep the rebuilt table replay-stable.
	for from, row := range rs.Choice {
		newRow := make(map[spec.EnvState]spec.ConfigID, len(row))
		for env, to := range row {
			if from != to && !isSafe[from] && !isSafe[to] {
				newRow[env] = s
			} else {
				newRow[env] = to
			}
		}
		out.Choice[from] = newRow
	}
	return &out, nil
}
