package counters

import "fsencr/internal/obsplane/journal"

// JournalBump records the security-journal events implied by a counter
// bump: a minor-counter overflow (which forces a whole-page re-encryption)
// and, in the extreme, a major-counter wrap (which for file counters
// demands a key rotation, §VI). Quiet bumps emit nothing, so the journal
// only carries the transitions the paper reasons about.
func JournalBump(j *journal.Journal, cycle, page uint64, k Kind, r BumpResult) {
	if j == nil || !r.Overflowed {
		return
	}
	j.Emit(journal.Event{Cycle: cycle, Type: journal.CounterOverflow, Page: page, Detail: k.String()})
	if r.MajorWrapped {
		j.Emit(journal.Event{Cycle: cycle, Type: journal.CounterMajorWrap, Page: page, Detail: k.String()})
	}
}
