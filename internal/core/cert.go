package core

import (
	"sword/internal/itree"
	"sword/internal/trace"
)

// Static worksharing certificates, analyzer side. The runtime publishes a
// trace.LoopCert for every certified worksharing loop: the schedule's
// thread→chunk mapping, the declared affine access shapes, and per-thread
// counts of accesses the collector dropped instead of recording. The
// analyzer consumes them in one of two ways:
//
//   - A CLEAN certificate whose structural position the analyzer can
//     itself verify retires the loop's pair classes: every pair of tree
//     units covered by the certificate is provably race-free (the runtime
//     checked disjointness before dropping a single access), so the pair
//     is counted in core.pairs_retired_static and skipped.
//
//   - Anything else — a VOIDED certificate (the loop body did something
//     the proof does not cover) or a CLEAN one whose interval might be
//     concurrent with code outside the certificate — is rematerialized:
//     the dropped access prefix is reconstructed exactly from the counts
//     and injected into the owning tree units, so the comparison engine
//     sees the same access set it would have seen with filtering off.
//
// Trust is decided here, not taken from the trace: dropped accesses are
// unrecorded, so a CLEAN claim is only safe to honor when no interval
// outside the certificate can be concurrent with the certified ones.

// certInfo is one certificate resolved against the recovered structure.
type certInfo struct {
	c    trace.LoopCert
	rows []*interval // per cert thread row; nil when unresolved
	// retire marks a CLEAN certificate whose structural position checks
	// out: its pair classes are skipped. When false the dropped accesses
	// are rematerialized instead, which is always sound.
	retire bool
}

// attachCerts resolves every certificate's thread rows onto intervals and
// decides retire-vs-rematerialize. Called by assemble after regions are
// linked and quarantine flags are final; a certificate the structure
// cannot place is recorded as damage and dropped.
func (s *structure) attachCerts(certs []trace.LoopCert) {
	quarantinedRun := false
	for _, r := range s.regions {
		if r.quarantined {
			quarantinedRun = true
			break
		}
	}
	for i := range certs {
		ci := &certInfo{c: certs[i], rows: make([]*interval, len(certs[i].Threads))}
		c := &ci.c
		r, ok := s.regions[c.PID]
		if !ok || r.quarantined {
			s.note("certificate for region %d, barrier %d: region lost with a damaged slot; certificate dropped", c.PID, c.BID)
			continue
		}
		resolved := true
		for t := range c.Threads {
			row := &c.Threads[t]
			if !c.Clean && rowDropped(row) == 0 {
				continue // nothing to place and no clean claim to audit
			}
			iv, ok := s.intervals[trace.IntervalKey{PID: c.PID, TID: row.TID, BID: c.BID}]
			if !ok || iv.quarantined {
				resolved = false
				if rowDropped(row) > 0 {
					s.note("certificate for region %d, barrier %d: %d dropped access(es) of thread %d lost with a damaged slot", c.PID, c.BID, rowDropped(row), row.TID)
				}
				continue
			}
			if iv.cert != nil {
				s.note("duplicate certificate for interval %+v; later record dropped", iv.key)
				resolved = false
				continue
			}
			ci.rows[t] = iv
		}
		// A CLEAN claim is honored only when the analyzer can independently
		// verify that nothing outside the certificate was concurrent with
		// the certified intervals: a level-1 synchronous region covering
		// its full team, no subtree forked in the certified barrier
		// interval, and no structural damage anywhere —
		// damage hides concurrency, and dropped accesses cannot be
		// re-examined later.
		ci.retire = c.Clean && resolved && !quarantinedRun &&
			r.level == 1 && !r.async && r.top == r &&
			uint64(len(c.Threads)) == r.span &&
			!descendantForkedAt(s, r, c.BID)
		for t, iv := range ci.rows {
			if iv != nil {
				iv.cert = ci
				iv.certRow = t
			}
		}
		s.certs = append(s.certs, ci)
	}
}

func rowDropped(row *trace.CertThread) uint64 {
	var n uint64
	for _, v := range row.Dropped {
		n += v
	}
	return n
}

// descendantForkedAt reports whether any region of r's subtree was forked
// from barrier interval bid of r — such a subtree runs concurrently with
// the other threads' intervals of that episode, which a certificate
// covering them cannot see.
func descendantForkedAt(s *structure, r *region, bid uint64) bool {
	for _, r2 := range s.topGroups[r.id] {
		if r2 == r || len(r2.frames) <= len(r.frames) {
			continue
		}
		if r2.frames[len(r.frames)].bid == bid {
			return true
		}
	}
	return false
}

// certUnit returns the tree unit a voided or untrusted certificate's
// dropped accesses belong to, or nil when the interval has none to
// rematerialize (no certificate, a retired one, or an empty row).
func certUnit(iv *interval) *treeUnit {
	ci := iv.cert
	if ci == nil || ci.retire || len(iv.units) == 0 {
		return nil
	}
	row := ci.certRowOf(iv)
	if row < 0 || rowDropped(&ci.c.Threads[row]) == 0 {
		return nil
	}
	if iv.taskParent {
		// Per-fragment units: the certificate recorded the fragment cut
		// the loop armed in; place the accesses there.
		cut := ci.c.Threads[row].Cut
		for _, cand := range iv.units {
			if cand.cut == cut {
				return cand
			}
		}
	}
	return iv.units[0]
}

// materializeCert reconstructs the interval's dropped access prefix and
// inserts it into u, the unit certUnit names, after the log's accesses
// for u and before finalize sorts its runs. Dropped accesses carry no
// mutexes by construction (the runtime stops dropping at the first lock
// acquisition), so the empty held set is exact, not an approximation.
func materializeCert(iv *interval, u *treeUnit) {
	c := &iv.cert.c
	row := iv.cert.certRowOf(iv)
	for d := range c.Decls {
		decl := &c.Decls[d]
		a := itree.Access{Width: decl.Elem, Write: decl.Write, PC: decl.PC}
		c.DroppedAccesses(row, d, func(addr uint64) {
			a.Addr = addr
			u.insert(a)
		})
	}
}

func (ci *certInfo) certRowOf(iv *interval) int {
	if iv.certRow < len(ci.rows) && ci.rows[iv.certRow] == iv {
		return iv.certRow
	}
	return -1
}
