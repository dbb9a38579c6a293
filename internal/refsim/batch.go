package refsim

import (
	"context"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/semantics"
)

// Job is one confirmation request: a witness trace plus the claim to
// evaluate against it.
type Job struct {
	Witness []semantics.Event
	Claim   Claim
}

// ReplayAll replays a batch of jobs and returns the verdicts in job order.
// Each replay is independent (Replay touches no shared state), so jobs fan
// out across workers; 0 means GOMAXPROCS, 1 forces sequential replay. The
// verdict for a job is a pure function of its witness and claim, so the
// worker count cannot change the result. When parent is non-nil a "refsim"
// child span covers the batch, refsim.replays counts jobs replayed and
// refsim.confirmed the verdicts that confirmed their claim.
func ReplayAll(jobs []Job, workers int, parent *obs.Span) []Verdict {
	sp := parent.Child("refsim").Int("jobs", len(jobs))
	defer sp.End()
	out := make([]Verdict, len(jobs))
	par.ForEach(context.Background(), workers, len(jobs), func(i int) {
		out[i] = Replay(jobs[i].Witness, jobs[i].Claim)
	})
	if reg := sp.Reg(); reg != nil {
		confirmed := int64(0)
		for _, v := range out {
			if v.Confirmed {
				confirmed++
			}
		}
		reg.Add("refsim.replays", int64(len(jobs)))
		reg.Add("refsim.confirmed", confirmed)
	}
	return out
}
