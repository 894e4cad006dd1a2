package stable

// Remounting: a ReplicatedStore built by NewReplicatedStore assumes fresh
// media and starts at version 0, which makes every pre-existing record look
// like it came from the future — readCandidates rejects versions ahead of
// the store's own as corrupt. MountReplicatedStore recovers the version
// first, so a store can reopen media written by a previous incarnation of
// the process (the fleet manifest surviving a fleetd crash).

// MountReplicatedStore opens a replicated store over media that may carry a
// previous incarnation's committed state. It adopts the highest intact
// commit-record version found on any replica: replicas behind that version
// tore their last commit and are healed by ordinary read repair; corrupt or
// absent commit records on individual replicas are tolerated as long as one
// replica's survives. Fresh media mount at version 0, identical to
// NewReplicatedStore.
func MountReplicatedStore(media ...Medium) *ReplicatedStore {
	r := NewReplicatedStore(media...)
	var v uint64
	for _, m := range r.media {
		raw, ok := m.Read(commitRecordKey)
		if !ok {
			continue
		}
		mv, err := decodeCommitRecord(raw)
		if err != nil {
			continue // torn commit record: this replica heals by repair
		}
		if mv > v {
			v = mv
		}
	}
	r.version = v
	return r
}
