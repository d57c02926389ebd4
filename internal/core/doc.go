// Package core implements the LLX, SCX and VLX synchronization primitives of
// Brown, Ellen and Ruppert, "Pragmatic Primitives for Non-blocking Data
// Structures" (PODC 2013), from single-word compare-and-swap.
//
// The primitives operate on Data-records (type Record), each holding a fixed
// number of single-word mutable fields — uint64 words and raw pointers.
// Immutable fields live in the structure node that embeds the record. The
// primitives (LLXFields, SCXWord/SCXPtr and VLX in this package's API):
//
//   - LLX(r) returns an atomic snapshot of r's mutable fields, or reports
//     that r has been finalized, or fails.
//   - SCX(V, R, fld, new) atomically stores new into the mutable field fld of
//     one record in V and finalizes every record in R ⊆ V, succeeding only if
//     no record in V has changed since the calling process's linked LLX on it.
//   - VLX(V) succeeds iff no record in V has changed since the calling
//     process's linked LLX on it.
//
// The implementation follows the paper's Figure 4 pseudocode: every record
// carries an info pointer to an SCX-record (an operation descriptor) and a
// marked bit. An SCX freezes each record in V by swinging its info pointer to
// the SCX's descriptor; processes that encounter a frozen record help the
// owning SCX to complete (cooperative technique), so the implementation is
// non-blocking. Finalized records (marked, with a committed descriptor) can
// never change again.
//
// Each participating goroutine must use its own Process handle, which holds
// the paper's per-process table of LLX results. A Process is not safe for
// concurrent use; Records may be shared freely between Processes.
//
// ABA freedom: the paper obliges the caller to never store a value into a
// field that the field previously contained (Section 4.1), because the
// update CAS compares raw values and a late helper's CAS must fail once the
// SCX it helps has taken effect. Fields are typed words, so the rule is
// met per field kind:
//
//   - word fields are monotone: every SCXWord writes a value strictly
//     larger than any the field has held in the record's lifetime (every
//     word field in this repository is an increasing count);
//   - pointer fields only ever receive nodes that are freshly allocated or
//     recycled through internal/reclaim after a grace period, so an address
//     cannot recur while a helper that expects it is still announced. A
//     pointer field is never given nil, or an older value, again: an update
//     that would restore one (unlinking a node in front of its successor, or
//     emptying a structure) finalizes the would-be value and installs a
//     fresh copy or a fresh sentinel instead, as the paper's multiset delete
//     does (Figure 5(c)).
package core
