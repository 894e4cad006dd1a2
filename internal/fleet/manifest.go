// The fleet manifest is the host's own black box: a CRC-checksummed,
// replicated stable store journaling everything needed to rebuild the fleet
// after the *process* dies — every SpawnSpec, every acked injection (the
// applied_frame ack is exactly the replay recipe), and a periodic per-tenant
// checkpoint of the frame reached. Tenants themselves are deterministic, so
// the manifest never stores tenant state: recovery re-spawns each tenant
// from its spec and replays its acked injections at their applied frames,
// reproducing the pre-crash execution byte-identically.
//
// Storage layout (all values JSON, all records CRC-framed by the stable
// layer underneath):
//
//	manifest/t/<id>/spawn          spawnRecord{Seq, Spec}
//	manifest/t/<id>/inj/<ord hex>  injRecord{Ord, Injection, Applied, RequestID}
//	manifest/t/<id>/ckpt           ckptRecord{Frame, State, Reason}
//
// Killing a tenant deletes its whole key range in one commit, so the
// manifest's footprint is bounded by the live fleet, not its history.
//
// Failure handling is self-stabilizing, not halting: a record torn on one
// replica is healed by read repair; a record lost on every replica is
// converged past — the tenant that record belonged to is quarantined (lost
// spawn or injection) or merely loses checkpoint progress (lost ckpt), and
// every other tenant recovers untouched.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stable"
)

const (
	manifestPrefix   = "manifest/t/"
	spawnSuffix      = "/spawn"
	ckptSuffix       = "/ckpt"
	injSuffixPrefix  = "/inj/"
	maxTenantIDBytes = 128
)

// ValidateTenantID rejects identifiers that cannot live in manifest keys or
// URL paths. The host enforces it for every spawn, durable or not, so specs
// stay portable between the two modes.
func ValidateTenantID(id string) error {
	if id == "" {
		return errors.New("fleet: empty tenant id")
	}
	if len(id) > maxTenantIDBytes {
		return fmt.Errorf("fleet: tenant id longer than %d bytes", maxTenantIDBytes)
	}
	for i := 0; i < len(id); i++ {
		if id[i] == '/' || id[i] < 0x20 {
			return fmt.Errorf("fleet: tenant id %q contains %q", id, id[i])
		}
	}
	return nil
}

// spawnRecord journals one tenant's creation. Seq is the spawn sequence
// number, preserved so a recovered fleet lists tenants in their original
// spawn order.
type spawnRecord struct {
	Seq  int64     `json:"seq"`
	Spec SpawnSpec `json:"spec"`
}

// injRecord journals one acked injection: the ord fixes the apply order
// within the tenant (assigned under the tenant lock at apply time), Applied
// is the acked frame, and RequestID carries the client's idempotency key so
// the dedupe cache survives a restart.
type injRecord struct {
	Ord       int64     `json:"ord"`
	Inj       Injection `json:"inj"`
	Applied   int64     `json:"applied"`
	RequestID string    `json:"request_id,omitempty"`
}

// ckptRecord journals a tenant's progress: the highest frame boundary known
// committed, plus the lifecycle state so completed and quarantined tenants
// restore without guessing. Recovery replays the tenant to Frame; anything
// the tenant ran past its last checkpoint is progress lost to the crash,
// bounded by Config.CheckpointEvery.
type ckptRecord struct {
	Frame  int64  `json:"frame"`
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
}

func spawnKey(id string) string { return manifestPrefix + id + spawnSuffix }
func ckptKey(id string) string  { return manifestPrefix + id + ckptSuffix }
func injKey(id string, ord int64) string {
	return fmt.Sprintf("%s%s%s%016x", manifestPrefix, id, injSuffixPrefix, ord)
}

// manifest serializes all commits to the fleet's durable store: the store is
// single-owner, and mu is how the control plane and the checkpointing sweep
// share it. A nil manifest (host without a Config.Manifest store) turns
// every method into a no-op, which is the pre-durability in-memory behavior.
type manifest struct {
	mu  sync.Mutex
	st  *stable.Store
	err error // first commit/storage fault; latched, fails later mutations
	// live names the tenants with a journaled spawn and no removal. A kill
	// can land between the checkpoint sweep reading a tenant and its commit,
	// or between an injection's barrier and its journaling; records for a
	// tenant no longer live are not written, so no orphan record outlives
	// the removal.
	live map[string]bool
}

func newManifest(st *stable.Store) *manifest {
	if st == nil {
		return nil
	}
	m := &manifest{st: st, live: make(map[string]bool)}
	// The store fires its sink from inside the failing call, and every
	// call on st is made by a manifest method holding mu: the sink already
	// runs under mu, so taking it again would self-deadlock.
	st.SetFaultSink(func(err error) {
		if m.err == nil {
			m.err = err
		}
	})
	return m
}

// commitLocked commits the staged batch and surfaces a latched fault.
func (m *manifest) commitLocked() error {
	m.st.Commit()
	return m.err
}

// recordSpawn durably journals a tenant before it becomes visible.
func (m *manifest) recordSpawn(seq int64, ss SpawnSpec) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if err := m.st.PutJSON(spawnKey(ss.ID), spawnRecord{Seq: seq, Spec: ss}); err != nil {
		return err
	}
	if err := m.commitLocked(); err != nil {
		return err
	}
	m.live[ss.ID] = true
	return nil
}

// adopt marks a tenant recovered from the store as live. Recover calls it
// before the host starts, so it needs no lock.
func (m *manifest) adopt(tenantID string) {
	if m != nil {
		m.live[tenantID] = true
	}
}

// recordInjection durably journals an acked injection. It runs after the
// injection's frame barrier and before the ack leaves the control plane:
// an acked injection is always replayable, an unacked one may be lost with
// the crash — at-most-once, never silently divergent.
func (m *manifest) recordInjection(tenantID string, rec injRecord) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if !m.live[tenantID] {
		return fmt.Errorf("tenant %q was killed", tenantID)
	}
	if err := m.st.PutJSON(injKey(tenantID, rec.Ord), rec); err != nil {
		return err
	}
	return m.commitLocked()
}

// recordCheckpoints journals a batch of tenant checkpoints in one commit —
// the sweep loop's periodic progress barrier and the drain path's final one.
func (m *manifest) recordCheckpoints(cks map[string]ckptRecord) error {
	if m == nil || len(cks) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	for id, ck := range cks {
		if !m.live[id] {
			continue
		}
		if err := m.st.PutJSON(ckptKey(id), ck); err != nil {
			return err
		}
	}
	return m.commitLocked()
}

// removeTenant deletes a killed tenant's whole manifest range in one
// commit, keeping the manifest bounded by the live fleet.
func (m *manifest) removeTenant(tenantID string) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	delete(m.live, tenantID)
	for _, k := range m.st.Keys(manifestPrefix + tenantID + "/") {
		m.st.Delete(k)
	}
	return m.commitLocked()
}

// tenantManifest is one tenant's parsed manifest: the replay recipe.
type tenantManifest struct {
	Seq        int64
	Spec       SpawnSpec
	Injections []injRecord // ord order; gaps are legal (barrier-failed ords)
	Ckpt       ckptRecord  // zero value when no checkpoint was committed
	HasCkpt    bool
	// Damaged, when non-empty, names why this tenant cannot be replayed
	// faithfully (a lost injection record); recovery quarantines it.
	Damaged string
}

// loadManifest parses the manifest out of the store, converging past
// unrecoverable records. It returns the per-tenant recipes plus the ids of
// tenants whose spawn record is lost entirely (nothing to respawn from —
// reported, then dropped).
func loadManifest(st *stable.Store) (map[string]*tenantManifest, []string, error) {
	rep := st.Hardened()
	if rep == nil {
		return nil, nil, errors.New("fleet: manifest store is not hardened")
	}
	snap, err := rep.SnapshotPrefix(manifestPrefix)
	var lost []string
	if err != nil {
		if !errors.Is(err, stable.ErrUnrecoverable) {
			return nil, nil, fmt.Errorf("fleet: loading manifest: %w", err)
		}
		// Converge past: structured list of the dead keys, damage scoped
		// to the tenants that owned them.
		lost = rep.LostKeys(manifestPrefix)
	}

	tenants := make(map[string]*tenantManifest)
	get := func(id string) *tenantManifest {
		tm := tenants[id]
		if tm == nil {
			tm = &tenantManifest{}
			tenants[id] = tm
		}
		return tm
	}
	var parseErrs []string
	for key, raw := range snap {
		id, kind, ord, ok := parseManifestKey(key)
		if !ok {
			parseErrs = append(parseErrs, fmt.Sprintf("unparseable key %q", key))
			continue
		}
		tm := get(id)
		switch kind {
		case "spawn":
			var sr spawnRecord
			if err := json.Unmarshal(raw, &sr); err != nil {
				tm.Damaged = "spawn record undecodable: " + err.Error()
				continue
			}
			sr.Spec.ID = id
			tm.Seq, tm.Spec = sr.Seq, sr.Spec
		case "inj":
			var ir injRecord
			if err := json.Unmarshal(raw, &ir); err != nil {
				tm.Damaged = fmt.Sprintf("injection record %d undecodable: %v", ord, err)
				continue
			}
			tm.Injections = append(tm.Injections, ir)
		case "ckpt":
			var ck ckptRecord
			if err := json.Unmarshal(raw, &ck); err != nil {
				// A bad checkpoint only costs progress, never correctness.
				continue
			}
			tm.Ckpt, tm.HasCkpt = ck, true
		}
	}
	for _, key := range lost {
		id, kind, ord, ok := parseManifestKey(key)
		if !ok {
			continue
		}
		tm := get(id)
		switch kind {
		case "spawn":
			tm.Damaged = "spawn record lost on all replicas"
		case "inj":
			tm.Damaged = fmt.Sprintf("injection record %d lost on all replicas", ord)
		case "ckpt":
			// Progress loss only: replay falls back to the injection
			// barrier frames.
		}
	}

	var unrecoverable []string
	for id, tm := range tenants {
		if tm.Spec.Preset == "" && tm.Damaged == "" {
			tm.Damaged = "spawn record missing"
		}
		if tm.Spec.Preset == "" {
			// Nothing to respawn from: drop the tenant, report it.
			unrecoverable = append(unrecoverable, id)
			delete(tenants, id)
			continue
		}
		sort.Slice(tm.Injections, func(i, j int) bool { return tm.Injections[i].Ord < tm.Injections[j].Ord })
	}
	sort.Strings(unrecoverable)
	if len(parseErrs) > 0 {
		// Foreign keys under the manifest prefix are converged past too,
		// but deserve a surfaced note rather than silence.
		unrecoverable = append(unrecoverable, parseErrs...)
	}
	return tenants, unrecoverable, nil
}

// parseManifestKey splits manifest/t/<id>/spawn|ckpt|inj/<ord>.
func parseManifestKey(key string) (id, kind string, ord int64, ok bool) {
	rest, found := strings.CutPrefix(key, manifestPrefix)
	if !found {
		return "", "", 0, false
	}
	// Tenant ids cannot contain '/', so the first slash ends the id.
	i := strings.IndexByte(rest, '/')
	if i <= 0 {
		return "", "", 0, false
	}
	id, rest = rest[:i], rest[i:]
	switch {
	case rest == spawnSuffix:
		return id, "spawn", 0, true
	case rest == ckptSuffix:
		return id, "ckpt", 0, true
	case strings.HasPrefix(rest, injSuffixPrefix):
		n, err := strconv.ParseInt(rest[len(injSuffixPrefix):], 16, 64)
		if err != nil {
			return "", "", 0, false
		}
		return id, "inj", n, true
	}
	return "", "", 0, false
}
