// Package chaos is the fleet-level fault harness: a seeded storm of host
// crashes, tenant panics, storage faults and manifest torn-writes thrown at
// a durable fleet host, verified afterwards by the restart-equivalence
// checker (fleet.CheckEquivalence).
//
// The harness runs entirely in-process. A "crash" abandons the running host
// without draining — the scheduler is hard-stopped mid-campaign, no final
// checkpoint is journaled — and remounts a new host over the surviving
// manifest media, which is observably the same event as kill -9 on a real
// fleetd: a fail-stop halt loses everything staged in memory, keeps
// everything committed to stable media (the OS page cache survives process
// death, so even unsynced committed records are readable; a FileMedium's
// temp-and-rename staging keeps half-written records from masquerading as
// committed ones, and the stable layer's CRCs catch any that tear anyway).
// Torn-writes are injected on top, corrupting committed manifest records on
// one replica at the crash point — the mid-commit-crash shape read repair
// must heal without the recovered fleet noticing.
//
// Everything is driven from one seed, so a failing storm replays with the
// same strike plan and the same final fleet shape. Traffic tallies (how many
// strikes found their victim still running) depend on real scheduling — a
// strike racing a tenant's completion is legally skipped.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/stable"
)

// Plan is one seeded chaos storm.
type Plan struct {
	// Seed drives every random choice in the storm (tenant seeds,
	// injection timing, crash victims, torn-write targets).
	Seed int64 `json:"seed"`
	// Tenants is the fleet size.
	Tenants int `json:"tenants"`
	// Frames is each tenant's frame budget; the storm ends when every
	// tenant is at rest (completed or quarantined).
	Frames int64 `json:"frames"`
	// Crashes is how many times the host is hard-stopped and recovered
	// mid-storm.
	Crashes int `json:"crashes"`
	// Panics is how many tenants get a "panic" injection — a deterministic
	// in-frame panic the shard worker's recover must quarantine, and
	// recovery must reproduce.
	Panics int `json:"panics"`
	// StorageFaults is how many tenants get a "storage" injection during
	// live traffic — a processor halted by an unrecoverable storage fault,
	// driving a reconfiguration under the storm.
	StorageFaults int `json:"storage_faults"`
	// TornWrites is how many committed manifest records are corrupted on a
	// single replica at each crash point. Read repair must heal all of
	// them; equivalence is still required to hold.
	TornWrites int `json:"torn_writes"`
	// RetainFrames, when non-zero, runs every tenant with a bounded
	// journal/trace window — proving recovery and retention compose.
	RetainFrames int64 `json:"retain_frames,omitempty"`
	// CheckpointEvery overrides the host checkpoint cadence (0: default).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// Timeout bounds the whole storm (default 60s).
	Timeout time.Duration `json:"-"`
}

// Outcome reports what the storm did and what the checker found. A clean
// storm has Mismatches and Errors empty and Checked == Tenants.
type Outcome struct {
	Tenants  int `json:"tenants"`
	Crashes  int `json:"crashes"`
	Injected int `json:"injected"`
	// DedupeHits counts duplicate-request replays that returned the
	// primary's ack (idempotency verified on every injection).
	DedupeHits int `json:"dedupe_hits"`
	// TornWrites counts manifest records corrupted on one replica.
	TornWrites int `json:"torn_writes"`
	// Recovered sums tenants restored across all recoveries.
	Recovered int `json:"recovered"`
	// Completed/Quarantined are the fleet's final states.
	Completed   int `json:"completed"`
	Quarantined int `json:"quarantined"`
	// Checked counts tenants that went through the restart-equivalence
	// checker; Mismatches holds every divergence it found.
	Checked    int      `json:"checked"`
	Mismatches []string `json:"mismatches,omitempty"`
	// Errors holds storm-level failures (timeouts, recovery errors).
	Errors []string `json:"errors,omitempty"`
}

// Ok reports a clean storm: every tenant checked, nothing diverged.
func (o Outcome) Ok() bool {
	return len(o.Mismatches) == 0 && len(o.Errors) == 0 && o.Checked == o.Tenants
}

// presets cycled across the storm's tenants.
var presets = []string{"threeconfig", "threeconfig-spares", "threeconfig-spares4"}

// Run executes a plan and returns its outcome.
func Run(plan Plan) Outcome {
	if plan.Tenants <= 0 {
		plan.Tenants = 8
	}
	if plan.Frames < 16 {
		plan.Frames = 120
	}
	if plan.Timeout <= 0 {
		plan.Timeout = 60 * time.Second
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	deadline := time.Now().Add(plan.Timeout)
	var out Outcome
	out.Tenants = plan.Tenants

	// The manifest media survive every crash: they are the disk.
	media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
	mount := func() (*fleet.Host, *fleet.Recovery, error) {
		st := stable.NewHardened(stable.MountReplicatedStore(media...))
		return fleet.Recover(fleet.Config{
			Shards:          2,
			Batch:           4,
			Manifest:        st,
			CheckpointEvery: plan.CheckpointEvery,
			RetainFrames:    plan.RetainFrames,
		})
	}

	host, _, err := mount()
	if err != nil {
		out.Errors = append(out.Errors, "initial mount: "+err.Error())
		return out
	}

	// Pre-plan the fleet: every tenant's seed, then the panic strikes.
	// Panics arm as soon as their victim is spawned, before it can make
	// progress (the sweep steps a tenant from the moment Spawn returns):
	// the armed frame is in the back half of the budget (the victims do
	// real work, and usually survive at least one crash, before dying), and
	// arming that early makes the storm's quarantine set a pure function of
	// the seed — a panic ack needs no commit barrier, so arming lands.
	specs := make([]fleet.SpawnSpec, plan.Tenants)
	for i := range specs {
		specs[i] = fleet.SpawnSpec{
			ID:     fmt.Sprintf("c-%d", i),
			Preset: presets[i%len(presets)],
			Seed:   rng.Int63(),
			Frames: plan.Frames,
		}
	}
	type panicStrike struct {
		n     int // strike number, names the request
		frame int64
	}
	panics := make(map[int][]panicStrike) // by tenant index
	for i := 0; i < plan.Panics; i++ {
		frame := plan.Frames/2 + rng.Int63n(plan.Frames/2-1) + 1
		victim := rng.Intn(plan.Tenants)
		panics[victim] = append(panics[victim], panicStrike{i, frame})
	}

	// Spawn the fleet, arming each victim right after its spawn.
	acks := make(map[string][]fleet.AckedInjection)
	ids := make([]string, 0, plan.Tenants)
	for i, ss := range specs {
		if _, err := host.Spawn(ss); err != nil {
			out.Errors = append(out.Errors, "spawn "+ss.ID+": "+err.Error())
			continue
		}
		id := ss.ID
		ids = append(ids, id)
		for _, p := range panics[i] {
			inj := fleet.Injection{Kind: "panic", Frame: p.frame, RequestID: fmt.Sprintf("storm-panic-%d", p.n)}
			applied, err := host.Inject(id, inj)
			if err != nil {
				// Legal under extreme scheduling: the victim raced past the
				// armed frame before the arm landed. Not acked, so not in
				// the recipe.
				continue
			}
			out.Injected++
			acks[id] = append(acks[id], fleet.AckedInjection{Inj: inj, Applied: applied})
			if again, err := host.Inject(id, inj); err != nil || again != applied {
				out.Mismatches = append(out.Mismatches,
					fmt.Sprintf("tenant %s: duplicate panic request acked (%d,%v), primary acked %d", id, again, err, applied))
			} else {
				out.DedupeHits++
			}
		}
	}
	type strike struct {
		id  string
		inj fleet.Injection
	}
	var strikes []strike
	for i := 0; i < plan.StorageFaults && len(ids) > 0; i++ {
		strikes = append(strikes, strike{ids[rng.Intn(len(ids))], fleet.Injection{Kind: "storage", Proc: "p2"}})
	}
	for _, id := range ids {
		// Every tenant gets a degrade/repair pair: live traffic under the
		// storm, so every recovery replays a non-trivial injection history.
		strikes = append(strikes, strike{id, fleet.Injection{Kind: "env", Factor: "alt1", Value: "failed"}})
		strikes = append(strikes, strike{id, fleet.Injection{Kind: "env", Factor: "alt1", Value: "ok"}})
	}
	rng.Shuffle(len(strikes), func(i, j int) { strikes[i], strikes[j] = strikes[j], strikes[i] })

	// The storm proper: Crashes+1 generations. Each generation fires a
	// slice of the strikes, lets the fleet run, then hard-stops the host
	// and recovers a new one over the surviving media.
	gens := plan.Crashes + 1
	for gen := 0; gen < gens; gen++ {
		lo, hi := len(strikes)*gen/gens, len(strikes)*(gen+1)/gens
		for k, s := range strikes[lo:hi] {
			reqID := fmt.Sprintf("storm-%d-%d", gen, lo+k)
			inj := s.inj
			inj.RequestID = reqID
			applied, err := host.Inject(s.id, inj)
			if err != nil {
				// Legal under chaos: the victim quarantined or completed
				// before the strike landed. Not acked, so not in the
				// recipe — exactly the at-most-once contract.
				continue
			}
			out.Injected++
			acks[s.id] = append(acks[s.id], fleet.AckedInjection{Inj: inj, Applied: applied})
			// Idempotency probe: replay the same request id and demand the
			// identical ack without a second application.
			if again, err := host.Inject(s.id, inj); err != nil || again != applied {
				out.Mismatches = append(out.Mismatches,
					fmt.Sprintf("tenant %s: duplicate request %s acked (%d,%v), primary acked %d", s.id, reqID, again, err, applied))
			} else {
				out.DedupeHits++
			}
		}

		if gen < gens-1 {
			// Let the fleet make progress into this generation's window,
			// then crash it.
			waitFrames := plan.Frames * int64(gen+1) / int64(gens)
			if !waitUntil(deadline, func() bool { return atRestOrPast(host, waitFrames) }) {
				out.Errors = append(out.Errors, fmt.Sprintf("generation %d: timeout waiting for frame %d", gen, waitFrames))
			}
			host.Close() // hard stop: no drain, no final checkpoint
			out.Crashes++
			out.TornWrites += tearRecords(rng, media[rng.Intn(len(media))], plan.TornWrites)
			var rec *fleet.Recovery
			host, rec, err = mount()
			if err != nil {
				out.Errors = append(out.Errors, fmt.Sprintf("recovery %d: %v", gen, err))
				return out
			}
			out.Recovered += rec.Tenants
			if len(rec.Dropped) > 0 {
				out.Errors = append(out.Errors, fmt.Sprintf("recovery %d dropped tenants: %v", gen, rec.Dropped))
			}
		}
	}

	// Let the fleet run to rest, then verify every tenant against its
	// recipe's uninterrupted standalone run.
	if !waitUntil(deadline, func() bool { return atRestOrPast(host, plan.Frames+1) }) {
		out.Errors = append(out.Errors, "timeout waiting for fleet to come to rest")
	}
	defer host.Drain()
	for _, st := range host.List() {
		switch st.State {
		case fleet.StateCompleted:
			out.Completed++
		case fleet.StateQuarantined:
			out.Quarantined++
		}
		t, ok := host.Get(st.ID)
		if !ok {
			out.Errors = append(out.Errors, "tenant "+st.ID+" vanished")
			continue
		}
		if err := fleet.CheckEquivalence(t, acks[st.ID]); err != nil {
			out.Mismatches = append(out.Mismatches, err.Error())
			continue
		}
		out.Checked++
	}
	return out
}

// atRestOrPast reports whether every tenant is completed/quarantined or has
// passed the given frame.
func atRestOrPast(h *fleet.Host, frame int64) bool {
	for _, st := range h.List() {
		if st.State == fleet.StateRunning && st.Frame < frame {
			return false
		}
	}
	return true
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// tearRecords corrupts up to n committed records on one replica — the torn
// mid-commit write a crash can leave behind. The stable layer's CRC rejects
// the torn copy and read repair heals it from the survivor.
func tearRecords(rng *rand.Rand, m stable.Medium, n int) int {
	keys := m.Keys()
	if len(keys) == 0 {
		return 0
	}
	torn := 0
	for i := 0; i < n; i++ {
		key := keys[rng.Intn(len(keys))]
		view, ok := m.Read(key)
		if !ok || len(view) == 0 {
			continue
		}
		raw := bytes.Clone(view) // Read returns a read-only view
		if rng.Intn(2) == 0 {
			raw = raw[:rng.Intn(len(raw))] // truncate: a write cut short
		} else {
			raw[rng.Intn(len(raw))] ^= 0x40 // flip: a scribbled sector
		}
		if err := m.Write(key, raw); err == nil {
			torn++
		}
	}
	return torn
}
