package fleet

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/telemetry/serve"
)

// This file is the host's crash-restart path. A fleet host is itself a
// fail-stop system: kill -9 loses everything staged in memory, but the
// manifest — committed to the CRC-checksummed replicated store — survives.
// Recover rebuilds the fleet from that manifest alone: each tenant is
// re-spawned from its journaled SpawnSpec and replayed through its acked
// injections to its last checkpointed frame. Tenants are deterministic, so
// the replay reproduces the pre-crash execution byte-identically — journal,
// trace chunks, metrics, post-mortem snapshots — which is exactly what the
// restart-equivalence checker (and the CI smoke job) asserts.
//
// Failure handling is self-stabilizing: a tenant whose replay recipe is
// damaged (a record lost on every replica, an undecodable record, a replay
// that errors) is quarantined with the damage as its reason; a tenant whose
// spawn record is gone entirely is dropped and reported. No single tenant's
// damage stops any other tenant from recovering.

// Recovery reports what a Recover call rebuilt.
type Recovery struct {
	// Tenants is the number of tenants restored into the fleet, any state.
	Tenants int `json:"tenants"`
	// Running/Completed count tenants restored into those states.
	Running   int `json:"running"`
	Completed int `json:"completed"`
	// Quarantined lists tenants restored quarantined — either replayed
	// into their pre-crash quarantine, or damaged beyond faithful replay.
	Quarantined []string `json:"quarantined,omitempty"`
	// Dropped lists tenants (or foreign manifest keys) that could not be
	// restored at all: nothing to respawn from. Converged past, reported.
	Dropped []string `json:"dropped,omitempty"`
}

// Recover builds a host from a durable Config and rebuilds the pre-crash
// fleet out of cfg.Manifest before starting the scheduler. It is NewHost for
// a store that already has history; on a fresh store it degenerates to an
// empty durable host.
func Recover(cfg Config) (*Host, *Recovery, error) {
	if cfg.Manifest == nil {
		return nil, nil, errors.New("fleet: Recover needs Config.Manifest")
	}
	manifests, dropped, err := loadManifest(cfg.Manifest)
	if err != nil {
		return nil, nil, err
	}
	h := newHostNoLoop(cfg)
	rec := &Recovery{Dropped: dropped}

	// Seq order is spawn order: listings and the scheduler sweep see the
	// fleet in the same order the original host did.
	ids := make([]string, 0, len(manifests))
	for id := range manifests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := manifests[ids[i]], manifests[ids[j]]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return ids[i] < ids[j]
	})

	maxSeq := int64(-1)
	for _, id := range ids {
		tm := manifests[id]
		if tm.Seq > maxSeq {
			maxSeq = tm.Seq
		}
		t := h.recoverTenant(id, tm)
		h.man.adopt(id)
		h.tenants[id] = t
		h.order = append(h.order, id)
		rec.Tenants++
		switch t.state {
		case StateRunning:
			rec.Running++
		case StateCompleted:
			rec.Completed++
		case StateQuarantined:
			rec.Quarantined = append(rec.Quarantined, id)
		}
		for _, ir := range tm.Injections {
			h.primeDedupe(id, ir.RequestID, ir.Applied)
		}
	}
	sort.Strings(rec.Quarantined)
	h.spawnSeq = maxSeq + 1

	h.startLoop()
	return h, rec, nil
}

// recoverTenant rebuilds one tenant from its manifest recipe. It never
// fails: damage becomes quarantine, so the rest of the fleet recovers
// regardless. The returned tenant is not yet registered or stepped.
func (h *Host) recoverTenant(id string, tm *tenantManifest) *Tenant {
	t := &Tenant{
		id:   id,
		spec: tm.Spec,
		host: h,
	}
	if tm.Damaged != "" {
		return quarantineForRecovery(h, t, tm, "recovery: "+tm.Damaged)
	}
	if err := t.replay(tm); err != nil {
		return quarantineForRecovery(h, t, tm, "recovery: "+err.Error())
	}
	// Replay landed; the checkpoint's lifecycle state (or the frame budget)
	// decides how the tenant rejoins the fleet.
	t.lastCkptFrame, t.lastCkptState = tm.Ckpt.Frame, tm.Ckpt.State
	switch {
	case tm.HasCkpt && tm.Ckpt.State == StateQuarantined:
		// The pre-crash quarantine, reproduced: same frame boundary, same
		// reason, and a post-mortem polled from the byte-identical
		// committed stable storage the replay rebuilt.
		t.quarantineLocked(tm.Ckpt.Reason)
	case tm.Spec.Frames > 0 && t.sys.Frame() >= tm.Spec.Frames:
		t.state = StateCompleted
	default:
		t.state = StateRunning
	}
	return t
}

// quarantineForRecovery parks an unreplayable tenant: quarantined, with a
// fresh (unstepped) system if the spec still builds, so the control plane
// can report it without tripping over a nil system.
func quarantineForRecovery(h *Host, t *Tenant, tm *tenantManifest, reason string) *Tenant {
	if t.sys == nil {
		if opts, err := SpawnOptions(tm.Spec); err == nil {
			if sys, err := core.NewSystem(opts); err == nil {
				t.sys = sys
				t.frameLen = opts.Spec.FrameLen
			}
		}
	}
	t.state = StateQuarantined
	t.reason = reason
	t.final = &serve.Snapshot{}
	return t
}

// replay re-executes the tenant's pre-crash run: spawn from the spec,
// schedule the acked processor events up front (scheduling early is
// observably identical to scripting them), then walk the remaining acked
// injections in ord order, stepping to each one's applied frame before
// applying it. The final StepTo lands on the last checkpointed boundary (or
// the last injection barrier, whichever is later) — every frame up to there
// re-executes with the same deterministic inputs as the first time.
func (t *Tenant) replay(tm *tenantManifest) (err error) {
	opts, err := SpawnOptions(tm.Spec)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	t.sys = sys
	t.frameLen = opts.Spec.FrameLen
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay panicked: %v", r)
		}
	}()

	for _, ir := range tm.Injections {
		if ir.Inj.Kind != "procfail" && ir.Inj.Kind != "procrepair" {
			continue
		}
		kind := core.ProcFail
		if ir.Inj.Kind == "procrepair" {
			kind = core.ProcRepair
		}
		ev := core.ProcEvent{Frame: ir.Applied, Proc: spec.ProcID(ir.Inj.Proc), Kind: kind}
		if err := sys.ScheduleProcEvent(ev); err != nil {
			return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
		}
	}

	// Env and storage injections applied in ord order; their applied frames
	// are non-decreasing in ord (apply order is time order on a monotonic
	// frame counter), so StepTo never runs backward.
	target := int64(0)
	if tm.HasCkpt {
		target = tm.Ckpt.Frame
	}
	for _, ir := range tm.Injections {
		switch ir.Inj.Kind {
		case "env":
			if err := sys.StepTo(ir.Applied); err != nil {
				return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
			}
			sys.InjectFactor(envmon.Factor(ir.Inj.Factor), ir.Inj.Value)
		case "storage":
			if err := sys.StepTo(ir.Applied); err != nil {
				return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
			}
			if err := sys.InjectStorageFault(spec.ProcID(ir.Inj.Proc)); err != nil {
				return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
			}
		case "panic":
			// Re-arm; the sweep re-fires it at the same frame. An acked
			// panic has no frame barrier, so it does not raise the target.
			t.panicAt = ir.Applied
			continue
		default:
			continue
		}
		// A non-panic ack means the applied frame committed pre-crash: the
		// replay must cross it even if no checkpoint recorded it.
		if ir.Applied+1 > target {
			target = ir.Applied + 1
		}
	}
	if tm.Spec.Frames > 0 && target > tm.Spec.Frames {
		target = tm.Spec.Frames
	}
	if err := sys.StepTo(target); err != nil {
		return fmt.Errorf("replaying to frame %d: %w", target, err)
	}
	// The ord counter resumes past everything journaled, keeping manifest
	// keys unique across the restart.
	if n := len(tm.Injections); n > 0 {
		t.injSeq = tm.Injections[n-1].Ord + 1
	}
	return err
}
