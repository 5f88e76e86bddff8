// Package persistok is a persistsplit fixture: a sim.Recoverable
// implementor whose every field carries a justified durable/volatile
// annotation and whose OnCrash wipes exactly the volatile set — partly
// through a helper, so the rule's interprocedural wipe inference is
// exercised on the clean path too.
package persistok

import "detobj/internal/sim"

// Store splits its state along the persistence seam: the committed
// value is durable, the staged writes and the per-process dedup set are
// volatile.
type Store struct {
	val   sim.Value         //detlint:durable the committed value is the non-volatile cell the model posits
	stage map[int]sim.Value //detlint:volatile per-process staged writes die with their process
	seen  map[int]bool      //detlint:volatile dedup marks are re-derived on recovery; wiped via the clearSeen helper
}

// Apply implements sim.Object: "stage"(v) buffers a write, "commit"
// makes the caller's staged value durable, "read" returns the committed
// value.
func (s *Store) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "stage":
		if s.stage == nil {
			s.stage = make(map[int]sim.Value)
			s.seen = make(map[int]bool)
		}
		s.stage[env.Proc] = inv.Arg(0)
		s.seen[env.Proc] = true
		return sim.Respond(nil)
	case "commit":
		if v, ok := s.stage[env.Proc]; ok {
			s.val = v
			delete(s.stage, env.Proc)
		}
		return sim.Respond(s.val)
	case "read":
		return sim.Respond(s.val)
	}
	return sim.Respond(nil)
}

// OnCrash wipes the crashed process's volatile half; the durable value
// is untouched. The seen entry goes through a helper, which the wipe
// inference must follow.
func (s *Store) OnCrash(proc int) {
	delete(s.stage, proc)
	s.clearSeen(proc)
}

func (s *Store) clearSeen(proc int) { delete(s.seen, proc) }
