package core

// SnapshotAll attempts an atomic snapshot of the mutable fields of several
// Data-records at once: it LLXs each record and then validates the set with
// a single VLX, which (by correctness property C4) certifies that no record
// changed between its LLX and the VLX — so the per-record snapshots coexist
// at the VLX's linearization point. This is the paper's intended use of VLX:
// a multi-record read costing only one extra read per record, with no CAS.
//
// snaps is caller-owned and must be at least as long as recs; on success
// snaps[i] holds the snapshot of recs[i]. It fails (false) if any LLX fails
// or observes a finalized record, or if the VLX detects interference;
// callers retry. The links established by the LLXs remain usable on
// success, exactly as after a successful VLX.
func (p *Process) SnapshotAll(recs []*Record, snaps []Fields) bool {
	if len(snaps) < len(recs) {
		panic("core: SnapshotAll given fewer snapshots than records")
	}
	if len(recs) == 0 {
		return true
	}
	for i, r := range recs {
		if p.LLXFields(r, &snaps[i]) != LLXOK {
			return false
		}
	}
	return p.VLX(recs)
}
