package fixture

import "sort"
import s "sort"

// qjob is a queued job: a priority value and an arrival time, neither of
// them unique across the queue.
type qjob struct{ value, arrival int64 }

// flaggedSingleKey sorts by one key with unstable sort.Slice: jobs with
// equal value land in pivot-dependent order.
func flaggedSingleKey(jobs []qjob) {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].value > jobs[j].value })
}

// flaggedOpaque passes a named comparator the analyzer cannot see into.
func flaggedOpaque(jobs []qjob, less func(i, j int) bool) {
	sort.Slice(jobs, less)
}

// flaggedComplex hides the comparison behind a helper call.
func flaggedComplex(jobs []qjob) {
	sort.Slice(jobs, func(i, j int) bool { return rank(jobs[i]) < rank(jobs[j]) })
}

func rank(q qjob) int64 { return q.value*2 + q.arrival }

// flaggedAliased reaches sort.Slice through an aliased import: the rule
// resolves the callee, so the spelling does not hide it.
func flaggedAliased(jobs []qjob) {
	s.Slice(jobs, func(i, j int) bool { return jobs[i].arrival < jobs[j].arrival })
}
