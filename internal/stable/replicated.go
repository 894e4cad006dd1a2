package stable

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// ReplStats is a point-in-time view of the hardened store's fault-handling
// counters. The counters themselves live in a telemetry registry (a private
// one until Instrument points the store at the system registry); ReplStats
// is assembled on demand, so there is no duplicated bookkeeping. The
// invariant the fault-injection campaigns check: SilentWrongData is always
// zero — every injected fault is either repaired from a surviving replica
// or surfaces as an unrecoverable fault that halts the owning processor.
type ReplStats struct {
	// Commits is the number of commit batches applied.
	Commits int64 `json:"commits"`
	// TornReplicaCommits counts replica commit batches lost mid-way to a
	// torn write (the replica fell behind and was later repaired).
	TornReplicaCommits int64 `json:"torn_replica_commits"`
	// CorruptionsDetected counts records that failed their integrity
	// check on read or scrub.
	CorruptionsDetected int64 `json:"corruptions_detected"`
	// ReadRepairs counts replica records rewritten from a surviving
	// replica during reads.
	ReadRepairs int64 `json:"read_repairs"`
	// ScrubRepairs counts replica records rewritten by the end-of-frame
	// scrub pass or by a commit-time rescue.
	ScrubRepairs int64 `json:"scrub_repairs"`
	// ScrubRuns counts scrub passes.
	ScrubRuns int64 `json:"scrub_runs"`
	// StaleCommitRecords counts media whose commit record was found
	// behind (or corrupt) and rewritten by the scrub pass.
	StaleCommitRecords int64 `json:"stale_commit_records"`
	// CommitRescues counts commits salvaged by verify-and-repair promotion
	// of a replica that absorbed the batch but was not caught up when no
	// caught-up replica absorbed it.
	CommitRescues int64 `json:"commit_rescues"`
	// Unrecoverable counts faults that defeated every replica: the events
	// that must halt the processor to preserve fail-stop semantics.
	Unrecoverable int64 `json:"unrecoverable"`
	// SilentWrongData counts reads that returned data disagreeing with
	// the oracle without raising a fault. It must be zero; a nonzero
	// count means the fail-stop abstraction was violated.
	SilentWrongData int64 `json:"silent_wrong_data"`
}

// add accumulates counts from another store.
func (s *ReplStats) Add(o ReplStats) {
	s.Commits += o.Commits
	s.TornReplicaCommits += o.TornReplicaCommits
	s.CorruptionsDetected += o.CorruptionsDetected
	s.ReadRepairs += o.ReadRepairs
	s.ScrubRepairs += o.ScrubRepairs
	s.ScrubRuns += o.ScrubRuns
	s.StaleCommitRecords += o.StaleCommitRecords
	s.CommitRescues += o.CommitRescues
	s.Unrecoverable += o.Unrecoverable
	s.SilentWrongData += o.SilentWrongData
}

// ScrubReport summarizes one end-of-frame scrub pass.
type ScrubReport struct {
	// Checked is the number of logical keys examined.
	Checked int
	// Corrupt is the number of invalid replica records found.
	Corrupt int
	// Repaired is the number of replica records rewritten.
	Repaired int
	// StaleCommits is the number of media whose behind (or corrupt) commit
	// record was successfully rewritten.
	StaleCommits int
	// Unrecoverable lists keys whose every replica was corrupt.
	Unrecoverable []string
}

// ReplicatedStore mirrors commits across N backing media, each holding
// checksummed, versioned records. Reads consult every replica and return the
// newest valid record, repairing divergent replicas in passing (read
// repair); a scrub pass re-verifies everything at the frame boundary. It is
// the constructive realization of the stable storage the paper assumes:
// corruption a checksum catches on some replica is repaired transparently,
// corruption that defeats all replicas surfaces as ErrUnrecoverable — which
// the owning fail-stop processor converts into a halt.
//
// A ReplicatedStore is not safe for concurrent use: like the Store it backs,
// it belongs to one goroutine at a time.
type ReplicatedStore struct {
	media   []Medium
	version uint64
	oracle  map[string][]byte // nil unless EnableOracle
	c       *replCounters
	tel     telemetry.Sink // the no-op sink until Instrument
	name    string         // host label for flight-recorder events
	// attrs is the scratch flight-recorder events' attributes are built
	// in; the recorder copies what it keeps.
	attrs telemetry.Attrs
	// union caches the sorted union of every medium's logical keys, with
	// unionSet as its membership index. The key set can only grow, and only
	// through Commit (deletions are tombstone records; repair, rescue and
	// scrub rewrite keys that already exist), so the cache stays valid until
	// a commit batch introduces an unseen key. Nil means "rebuild".
	union    []string
	unionSet map[string]struct{}
	// keyScratch is the reusable sorted-batch-key buffer for Commit.
	keyScratch []string
	// Per-pass scratch, sized to the media at construction and reused
	// so a clean read or scrub pass allocates nothing: up is
	// caughtUp's result, cands readCandidates', and flags the per-medium
	// absorbed (Commit) or unrepaired (Scrub) marks.
	up    []bool
	cands []candidate
	flags []bool
	// enc holds Commit's batch records, each encoded once for every
	// medium, ending at the offsets in encEnds; rec holds one record at a
	// time for a repair or a commit record. Medium.Write never retains its
	// argument, so both are free again once the writes return.
	enc     []byte
	encEnds []int
	rec     []byte
}

// replCounters holds the store's pre-resolved metric handles, one per
// ReplStats field.
type replCounters struct {
	commits, tornReplicaCommits, corruptionsDetected, readRepairs,
	scrubRepairs, scrubRuns, staleCommitRecords, commitRescues,
	unrecoverable, silentWrongData *telemetry.Counter
}

// resolveReplCounters binds the store's counters in reg under prefix.
func resolveReplCounters(reg *telemetry.Registry, prefix string) *replCounters {
	return &replCounters{
		commits:             reg.Counter(prefix + "commits"),
		tornReplicaCommits:  reg.Counter(prefix + "torn_replica_commits"),
		corruptionsDetected: reg.Counter(prefix + "corruptions_detected"),
		readRepairs:         reg.Counter(prefix + "read_repairs"),
		scrubRepairs:        reg.Counter(prefix + "scrub_repairs"),
		scrubRuns:           reg.Counter(prefix + "scrub_runs"),
		staleCommitRecords:  reg.Counter(prefix + "stale_commit_records"),
		commitRescues:       reg.Counter(prefix + "commit_rescues"),
		unrecoverable:       reg.Counter(prefix + "unrecoverable"),
		silentWrongData:     reg.Counter(prefix + "silent_wrong_data"),
	}
}

// view assembles the point-in-time ReplStats.
func (c *replCounters) view() ReplStats {
	return ReplStats{
		Commits:             c.commits.Value(),
		TornReplicaCommits:  c.tornReplicaCommits.Value(),
		CorruptionsDetected: c.corruptionsDetected.Value(),
		ReadRepairs:         c.readRepairs.Value(),
		ScrubRepairs:        c.scrubRepairs.Value(),
		ScrubRuns:           c.scrubRuns.Value(),
		StaleCommitRecords:  c.staleCommitRecords.Value(),
		CommitRescues:       c.commitRescues.Value(),
		Unrecoverable:       c.unrecoverable.Value(),
		SilentWrongData:     c.silentWrongData.Value(),
	}
}

// NewReplicatedStore builds a replicated store over the given media. At
// least one medium is required; one medium gives checksummed (detecting but
// not self-repairing) storage. The store counts its fault handling in a
// private registry until Instrument attaches it to the system's.
func NewReplicatedStore(media ...Medium) *ReplicatedStore {
	if len(media) == 0 {
		media = []Medium{NewMemMedium()}
	}
	return &ReplicatedStore{
		media: media,
		c:     resolveReplCounters(telemetry.NewRegistry(), "stable/"),
		tel:   telemetry.NopSink{},
		up:    make([]bool, len(media)),
		cands: make([]candidate, len(media)),
		flags: make([]bool, len(media)),
	}
}

// Instrument re-points the store's counters at the shared registry under
// "stable/<name>/" (carrying over counts accumulated so far) and attaches
// the flight recorder, which subsequently receives repair, rescue, scrub
// and unrecoverable-fault events labeled with the host name.
func (r *ReplicatedStore) Instrument(reg *telemetry.Registry, rec *telemetry.Recorder, name string) {
	old := r.c.view()
	r.c = resolveReplCounters(reg, "stable/"+name+"/")
	r.c.commits.Add(old.Commits)
	r.c.tornReplicaCommits.Add(old.TornReplicaCommits)
	r.c.corruptionsDetected.Add(old.CorruptionsDetected)
	r.c.readRepairs.Add(old.ReadRepairs)
	r.c.scrubRepairs.Add(old.ScrubRepairs)
	r.c.scrubRuns.Add(old.ScrubRuns)
	r.c.staleCommitRecords.Add(old.StaleCommitRecords)
	r.c.commitRescues.Add(old.CommitRescues)
	r.c.unrecoverable.Add(old.Unrecoverable)
	r.c.silentWrongData.Add(old.SilentWrongData)
	r.tel = telemetry.OrNop(rec)
	r.name = name
}

// record mirrors a storage event into the flight recorder, when attached.
// The recorder never calls back into the store.
func (r *ReplicatedStore) record(e telemetry.Event) {
	if !r.tel.Enabled() {
		return
	}
	e.Host = r.name
	r.tel.Record(e)
}

// EnableOracle turns on silent-wrong-data accounting: every commit is
// mirrored into a perfect shadow map and every read compared against it.
// Enable it before the first commit.
func (r *ReplicatedStore) EnableOracle() {
	if r.oracle == nil {
		r.oracle = make(map[string][]byte)
	}
}

// Stats assembles the fault-handling counters into a point-in-time view.
func (r *ReplicatedStore) Stats() ReplStats {
	return r.c.view()
}

// InjectedStats sums the injected-fault counts of every backing FaultyMedium.
func (r *ReplicatedStore) InjectedStats() MediumStats {
	var out MediumStats
	for _, m := range r.media {
		if fm, ok := m.(*FaultyMedium); ok {
			out.Add(fm.Stats())
		}
	}
	return out
}

// Replicas returns the number of backing media.
func (r *ReplicatedStore) Replicas() int { return len(r.media) }

// Version returns the last fully committed version.
func (r *ReplicatedStore) Version() uint64 {
	return r.version
}

// candidate is one replica's view of a key during a read. Its payload
// aliases the medium's read view, so it is valid only until the next call
// on that medium.
type candidate struct {
	rec     record
	valid   bool
	present bool // medium returned bytes (valid or not)
}

// readCandidates reads key from every medium, verifying each record where
// it lies. A record is valid when it decodes, its checksum holds, and its
// version is committed (a version ahead of the store is a leftover of a
// commit that failed everywhere). The result is the store's reused scratch:
// it is overwritten by the next call.
func (r *ReplicatedStore) readCandidates(key string) []candidate {
	cands := r.cands
	clear(cands)
	for i, m := range r.media {
		raw, ok := m.Read(key)
		if !ok {
			continue
		}
		cands[i].present = true
		rec, err := decodeRecord(raw)
		if err != nil || rec.version > r.version {
			r.c.corruptionsDetected.Inc()
			continue
		}
		cands[i].rec = rec
		cands[i].valid = true
	}
	return cands
}

// caughtUp reports, per medium, whether its commit record matches the
// store's version. Commit and Scrub both write a medium's data records
// before its commit record, so a matching commit record proves the medium
// absorbed every batch up to the current version — its copy of any key is
// the key's true newest committed write (unless rot damaged it since).
// Before the first commit every medium is trivially caught up. The result
// is the store's reused scratch: it is overwritten by the next call.
func (r *ReplicatedStore) caughtUp() (up []bool, any bool) {
	up = r.up
	clear(up)
	if r.version == 0 {
		for i := range up {
			up[i] = true
		}
		return up, true
	}
	for i, m := range r.media {
		// A corrupt read is retried once: a stuck read is transient and must
		// not demote a current medium to stale for the whole pass.
		for attempt := 0; attempt < 2; attempt++ {
			raw, ok := m.Read(commitRecordKey)
			if !ok {
				break
			}
			v, err := decodeCommitRecord(raw)
			if err != nil {
				continue
			}
			if v == r.version {
				up[i] = true
				any = true
			}
			break
		}
	}
	return up, any
}

// bestOf reads key's replicas and picks the copy a read may trust. A fatal
// first pass is re-read once before being believed: a stuck read is a
// transient fault that does not damage the stored record, so a second read
// separates it from persistent corruption — which stays fatal.
func (r *ReplicatedStore) bestOf(key string, up []bool, anyUp bool) ([]candidate, int, bool) {
	cands := r.readCandidates(key)
	best, fatal := selectBest(cands, up, anyUp)
	if fatal {
		cands = r.readCandidates(key)
		best, fatal = selectBest(cands, up, anyUp)
	}
	return cands, best, fatal
}

// selectBest picks the candidate a read may trust, or reports that none can
// be (fatal). Only caught-up media are authoritative: a replica left behind
// by a torn write holds valid-looking records that may predate later
// updates, so when every caught-up copy of a key is corrupt the newest
// committed version is unknowable and returning a stale survivor would be
// silent wrong data — exactly the failure a fail-stop store must convert
// into a halt. The fallback to stale media applies only when some medium is
// provably caught up yet none of the caught-up media knows the key at all
// (the key predates every surviving replica's last tear, so no newer write
// can be masked). With no caught-up medium whatsoever, no record can be
// proven current, and any surviving copy is fatal rather than trusted.
func selectBest(cands []candidate, up []bool, anyUp bool) (best int, fatal bool) {
	best = -1
	for i, c := range cands {
		if up[i] && c.valid && (best < 0 || c.rec.version > cands[best].rec.version) {
			best = i
		}
	}
	if best >= 0 {
		return best, false
	}
	if anyUp {
		for i, c := range cands {
			if up[i] && c.present {
				return -1, true
			}
		}
		for i, c := range cands {
			if c.valid && (best < 0 || c.rec.version > cands[best].rec.version) {
				best = i
			}
		}
		if best >= 0 {
			return best, false
		}
	}
	for _, c := range cands {
		if c.present {
			return -1, true
		}
	}
	return -1, false
}

// repairFrom rewrites every replica that disagrees with the winning record.
// The winner is encoded only once some replica needs it. Write faults during
// repair are tolerated: the replica stays behind and the next scrub retries.
// Returns the number of successful repairs; when failed is non-nil, any
// medium whose repair write faulted is marked in it.
func (r *ReplicatedStore) repairFrom(key string, cands []candidate, best int, failed []bool) int {
	win := cands[best].rec
	var raw []byte
	repaired := 0
	for i, c := range cands {
		if i == best || (c.valid && c.rec.version == win.version) {
			continue
		}
		if raw == nil {
			r.rec = appendRecord(r.rec[:0], win)
			raw = r.rec
		}
		if err := r.media[i].Write(key, raw); err == nil {
			repaired++
		} else if failed != nil {
			failed[i] = true
		}
	}
	return repaired
}

// Get returns the committed value for key, consulting every replica. A
// divergent or corrupt replica is repaired from the newest valid copy on a
// caught-up replica. When no trustworthy copy survives — every caught-up
// replica's copy is corrupt, or no replica holds a valid record at all —
// Get returns ErrUnrecoverable: the caller must halt, because the committed
// data cannot be proven current, absent, or reconstructed.
func (r *ReplicatedStore) Get(key string) ([]byte, bool, error) {
	return r.get(nil, key)
}

// getInto is Get appending the value to buf: the winning payload is copied
// straight from the replica that holds it. On a miss or a fault buf is
// returned unchanged.
func (r *ReplicatedStore) getInto(buf []byte, key string) ([]byte, bool, error) {
	return r.get(buf, key)
}

// get finds key's trusted committed value, repairs divergent replicas,
// checks the value against the oracle, and appends it to buf. Every replica
// is verified where it lies; the one copy made is the value handed out, into
// a fresh slice of exactly its length when buf is nil.
func (r *ReplicatedStore) get(buf []byte, key string) ([]byte, bool, error) {
	up, anyUp := r.caughtUp()
	cands, best, fatal := r.bestOf(key, up, anyUp)
	if fatal {
		r.c.unrecoverable.Inc()
		r.record(telemetry.Event{
			Kind:   telemetry.KindStorageUnrecoverable,
			Detail: fmt.Sprintf("read of %q: no trustworthy copy on %d replicas", key, len(r.media)),
		})
		return buf, false, fmt.Errorf("%w: key %q has no trustworthy copy on any of %d replicas", ErrUnrecoverable, key, len(r.media))
	}
	var val []byte
	ok := false
	if best >= 0 {
		if n := r.repairFrom(key, cands, best, nil); n > 0 {
			r.c.readRepairs.Add(int64(n))
			r.attrs = r.attrs[:0].With("repaired", int64(n))
			r.record(telemetry.Event{
				Kind:   telemetry.KindStorageRepair,
				Detail: fmt.Sprintf("read repair of %q", key),
				Attrs:  r.attrs,
			})
		}
		if win := cands[best].rec; !win.tombstone {
			val, ok = win.payload, true
		}
	}
	if r.oracle != nil {
		want, wok := r.oracle[key]
		if ok != wok || !bytes.Equal(val, want) {
			r.c.silentWrongData.Inc()
		}
	}
	if !ok {
		return buf, false, nil
	}
	if buf == nil {
		buf = make([]byte, 0, len(val))
	}
	return append(buf, val...), true, nil
}

// Commit applies a staged batch as version v to every replica: the batch's
// records in sorted key order, then the commit record. Only a medium that
// was caught up (its commit record pinning v-1) may be stamped with the new
// commit record: a medium that missed an earlier batch receives this batch's
// data records but keeps its old commit record — stamping it would declare
// its stale copies of keys outside the batch authoritative — and stays
// behind until a scrub pass fully repairs it. A replica whose medium tears
// mid-batch is likewise left behind (and repaired later). When no caught-up
// replica fully absorbs the commit, Commit tries to salvage it by promoting
// a replica that did absorb the whole batch: every record outside the batch
// is verified against — and repaired from — the still-readable pre-commit
// authoritative copies, and only on full success is that replica stamped. If
// neither a caught-up replica nor a promotion lands the commit, the new
// version cannot be trusted on any medium and Commit returns
// ErrUnrecoverable without advancing the version.
func (r *ReplicatedStore) Commit(v uint64, batch map[string]stagedVal) error {
	keys := r.keyScratch[:0]
	for k := range batch {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.keyScratch = keys
	if r.union != nil {
		for _, k := range keys {
			if _, ok := r.unionSet[k]; !ok {
				// The batch introduces a key the cached union has never
				// seen; whether its writes land (or tear) is per medium, so
				// the cache is rebuilt from the media on next use.
				r.union, r.unionSet = nil, nil
				break
			}
		}
	}

	// Encode every batch record once; each medium writes the same bytes.
	enc, ends := r.enc[:0], r.encEnds[:0]
	for _, k := range keys {
		sv := batch[k]
		enc = appendRecord(enc, record{version: v, tombstone: sv.deleted, payload: sv.val})
		ends = append(ends, len(enc))
	}
	r.enc, r.encEnds = enc, ends
	r.rec = appendCommitRecord(r.rec[:0], v)
	commitRec := r.rec

	up, anyUp := r.caughtUp()
	okReplicas := 0
	absorbed := r.flags
	clear(absorbed)
	for i, m := range r.media {
		good := true
		start := 0
		for j, k := range keys {
			end := ends[j]
			if err := m.Write(k, enc[start:end:end]); err != nil {
				r.c.tornReplicaCommits.Inc()
				good = false
				break
			}
			start = end
		}
		absorbed[i] = good
		if !up[i] {
			continue
		}
		if good {
			if err := m.Write(commitRecordKey, commitRec); err != nil {
				r.c.tornReplicaCommits.Inc()
				good = false
			}
		}
		if good {
			okReplicas++
		}
	}
	r.c.commits.Inc()
	if okReplicas == 0 {
		for i := range r.media {
			if absorbed[i] && r.rescueCommit(i, batch, up, anyUp) {
				r.rec = appendCommitRecord(r.rec[:0], v)
				if r.media[i].Write(commitRecordKey, r.rec) == nil {
					r.c.commitRescues.Inc()
					r.attrs = r.attrs[:0].With("replica", int64(i)).With("version", int64(v))
					r.record(telemetry.Event{
						Kind:   telemetry.KindStorageRescue,
						Detail: fmt.Sprintf("commit %d salvaged by promoting replica %d", v, i),
						Attrs:  r.attrs,
					})
					okReplicas = 1
					break
				}
			}
		}
	}
	if okReplicas == 0 {
		r.c.unrecoverable.Inc()
		r.attrs = r.attrs[:0].With("version", int64(v))
		r.record(telemetry.Event{
			Kind:   telemetry.KindStorageUnrecoverable,
			Detail: fmt.Sprintf("commit %d absorbed by no caught-up replica", v),
			Attrs:  r.attrs,
		})
		return fmt.Errorf("%w: commit %d absorbed by no caught-up replica (of %d)", ErrUnrecoverable, v, len(r.media))
	}
	r.version = v
	if r.oracle != nil {
		for _, k := range keys {
			if sv := batch[k]; sv.deleted {
				delete(r.oracle, k)
			} else {
				cp := make([]byte, len(sv.val))
				copy(cp, sv.val)
				r.oracle[k] = cp
			}
		}
	}
	return nil
}

// rescueCommit verifies and repairs every record of medium i outside the
// batch just written, against the replicas that were authoritative before
// this commit (a torn medium rejects writes but still reads). It reports
// whether medium i is provably fully current — only then may the caller
// stamp it with the new commit record. Batch keys are exempt: the caller
// proved them by completing their writes, and their new records are a
// version ahead of r.version, which readCandidates would misread as corrupt.
func (r *ReplicatedStore) rescueCommit(i int, batch map[string]stagedVal, up []bool, anyUp bool) bool {
	for _, key := range r.unionKeys() {
		if _, inBatch := batch[key]; inBatch {
			continue
		}
		cands, best, fatal := r.bestOf(key, up, anyUp)
		if fatal {
			return false
		}
		if best < 0 || best == i {
			continue
		}
		if c := cands[i]; c.valid && c.rec.version == cands[best].rec.version {
			continue
		}
		r.rec = appendRecord(r.rec[:0], cands[best].rec)
		if r.media[i].Write(key, r.rec) != nil {
			return false
		}
		r.c.scrubRepairs.Inc()
	}
	return true
}

// unionKeys returns every logical key stored on any medium, sorted. The
// result is cached: the scrub pass calls this every frame, and in steady
// state (no new keys committed) rebuilding and re-sorting the unchanged set
// dominated campaign profiles. Callers must not mutate the returned slice.
func (r *ReplicatedStore) unionKeys() []string {
	if r.union != nil {
		return r.union
	}
	seen := make(map[string]struct{})
	for _, m := range r.media {
		for _, k := range m.Keys() {
			if k != commitRecordKey {
				seen[k] = struct{}{}
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		r.union, r.unionSet = keys, seen
	}
	return keys
}

// Scrub is the end-of-frame integrity pass: it re-verifies every record on
// every replica, repairs divergent or corrupt copies from the newest valid
// one, refreshes stale commit records, and advances each medium's fault
// clock. skip (optional) exempts keys with a staged deletion this frame —
// repairing a record that the next commit tombstones is wasted work. A key
// corrupt on every replica makes Scrub return ErrUnrecoverable after
// finishing the pass.
//
// A stale commit record is refreshed only for a medium whose every record
// this pass brought (or verified) current: a medium with a failed repair —
// or a divergent copy of a skipped or unrecoverable key — must stay
// non-authoritative, or its unrepaired records would masquerade as the
// newest committed writes once the commit record declares it caught up.
func (r *ReplicatedStore) Scrub(skip func(key string) bool) (ScrubReport, error) {
	var rep ScrubReport
	up, anyUp := r.caughtUp()
	allUp := true
	for _, u := range up {
		allUp = allUp && u
	}
	unrepaired := r.flags
	clear(unrepaired)
	for _, key := range r.unionKeys() {
		doomed := skip != nil && skip(key)
		if doomed && allUp {
			continue
		}
		cands, best, fatal := r.bestOf(key, up, anyUp)
		if doomed {
			// The next commit tombstones the key everywhere, so it is not
			// worth repairing — but a stale medium holding a divergent copy
			// of it has not been brought current either.
			for i, c := range cands {
				if up[i] || !c.present {
					continue
				}
				if best >= 0 && c.valid && c.rec.version == cands[best].rec.version {
					continue
				}
				unrepaired[i] = true
			}
			continue
		}
		rep.Checked++
		for _, c := range cands {
			if c.present && !c.valid {
				rep.Corrupt++
			}
		}
		if fatal {
			rep.Unrecoverable = append(rep.Unrecoverable, key)
			for i, c := range cands {
				if !up[i] && c.present {
					unrepaired[i] = true
				}
			}
			continue
		}
		if best < 0 {
			continue
		}
		for _, c := range cands {
			if c.valid && c.rec.version < cands[best].rec.version {
				rep.Corrupt++ // stale, not damaged, but still divergent
			}
		}
		n := r.repairFrom(key, cands, best, unrepaired)
		rep.Repaired += n
		r.c.scrubRepairs.Add(int64(n))
	}
	for i, m := range r.media {
		raw, ok := m.Read(commitRecordKey)
		v, err := uint64(0), error(nil)
		if ok {
			v, err = decodeCommitRecord(raw)
		}
		if ok && err == nil && v == r.version {
			continue
		}
		if unrepaired[i] {
			continue
		}
		r.rec = appendCommitRecord(r.rec[:0], r.version)
		if m.Write(commitRecordKey, r.rec) == nil {
			rep.StaleCommits++
			r.c.staleCommitRecords.Inc()
		}
	}
	for _, m := range r.media {
		m.EndFrame()
	}
	r.c.scrubRuns.Inc()
	if rep.Corrupt > 0 || rep.Repaired > 0 || rep.StaleCommits > 0 {
		r.attrs = r.attrs[:0].
			With("checked", int64(rep.Checked)).
			With("corrupt", int64(rep.Corrupt)).
			With("repaired", int64(rep.Repaired)).
			With("stale_commits", int64(rep.StaleCommits))
		r.record(telemetry.Event{
			Kind:   telemetry.KindStorageScrub,
			Detail: "scrub pass found work",
			Attrs:  r.attrs,
		})
	}
	if len(rep.Unrecoverable) > 0 {
		r.c.unrecoverable.Add(int64(len(rep.Unrecoverable)))
		r.attrs = r.attrs[:0].With("keys", int64(len(rep.Unrecoverable)))
		r.record(telemetry.Event{
			Kind:   telemetry.KindStorageUnrecoverable,
			Detail: fmt.Sprintf("scrub found %d keys corrupt on all replicas", len(rep.Unrecoverable)),
			Attrs:  r.attrs,
		})
		return rep, fmt.Errorf("%w: scrub found %d keys corrupt on all replicas: %v",
			ErrUnrecoverable, len(rep.Unrecoverable), rep.Unrecoverable)
	}
	return rep, nil
}

// Snapshot merges every replica into the committed view: for each key the
// newest valid record wins. It returns ErrUnrecoverable if any key is
// corrupt on all replicas; the snapshot is then partial.
func (r *ReplicatedStore) Snapshot() (map[string][]byte, error) {
	return r.SnapshotPrefix("")
}

// SnapshotPrefix is Snapshot restricted to keys carrying the given prefix:
// only matching keys are read, verified and copied, so snapshotting one
// region does not pay for the rest of the store.
func (r *ReplicatedStore) SnapshotPrefix(prefix string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	var lost []string
	up, anyUp := r.caughtUp()
	for _, key := range r.unionKeys() {
		if len(key) < len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		cands, best, fatal := r.bestOf(key, up, anyUp)
		if fatal {
			lost = append(lost, key)
			continue
		}
		if best < 0 {
			continue
		}
		if win := cands[best].rec; !win.tombstone {
			cp := make([]byte, len(win.payload))
			copy(cp, win.payload)
			out[key] = cp
		}
	}
	if len(lost) > 0 {
		r.c.unrecoverable.Add(int64(len(lost)))
		return out, fmt.Errorf("%w: %d keys corrupt on all replicas in snapshot: %v",
			ErrUnrecoverable, len(lost), lost)
	}
	return out, nil
}

// LostKeys returns the keys under prefix that are corrupt on every replica —
// the structured companion to SnapshotPrefix's ErrUnrecoverable, for callers
// that converge past damage instead of halting: they need to know exactly
// which records are gone to quarantine only the state those records carried.
func (r *ReplicatedStore) LostKeys(prefix string) []string {
	var lost []string
	up, anyUp := r.caughtUp()
	for _, key := range r.unionKeys() {
		if len(key) < len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		if _, _, fatal := r.bestOf(key, up, anyUp); fatal {
			lost = append(lost, key)
		}
	}
	return lost
}

// KeysWithPrefix returns the committed keys having the given prefix, sorted.
// Keys corrupt on every replica make it return ErrUnrecoverable.
func (r *ReplicatedStore) KeysWithPrefix(prefix string) ([]string, error) {
	var keys []string
	var lost []string
	up, anyUp := r.caughtUp()
	for _, key := range r.unionKeys() {
		if len(key) < len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		cands, best, fatal := r.bestOf(key, up, anyUp)
		if fatal {
			lost = append(lost, key)
			continue
		}
		if best >= 0 && !cands[best].rec.tombstone {
			keys = append(keys, key)
		}
	}
	if len(lost) > 0 {
		r.c.unrecoverable.Add(int64(len(lost)))
		return keys, fmt.Errorf("%w: %d keys corrupt on all replicas: %v", ErrUnrecoverable, len(lost), lost)
	}
	return keys, nil
}
