package core

import (
	"sync"

	"fsencr/internal/obsplane/journal"
	"fsencr/internal/telemetry"
)

// A run sink collects one kind of per-run output — telemetry snapshots,
// security-journal events — process-wide. Collection is opt-in: when enabled,
// every Run boots its system with a private registry or journal (one
// goroutine, one emitter: recording is race-free and in simulation order),
// captures it at the end of the run, and RunBatch folds the per-run parts
// into the sink in batch input order. Every recorded value derives from
// simulated cycles and the fold order is the input order — never completion
// order — so the sink is byte-identical at any Parallelism.
//
// The live view is a display surface only: while a batch is in flight,
// completed runs accumulate in pending in completion order so the
// observability plane can show progress mid-batch. The batch's canonical
// merge replaces them in one step, so a live reader never sees a run twice
// and the determinism of the exports is untouched.
type collector[S any] struct {
	mu      sync.Mutex
	enabled bool
	sink    S
	pending S
	// fold merges from into into and returns it. fold(zero, s) is an
	// independent copy of s, and never nil.
	fold func(into, from S) S
}

// reset clears the sink, first turning collection on if enable is set.
func (c *collector[S]) reset(enable bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enabled = c.enabled || enable
	var zero S
	c.sink = zero
}

func (c *collector[S]) on() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// view returns a copy of the sink, for live readers plus the runs completed
// in the batch currently in flight.
func (c *collector[S]) view(live bool) S {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero S
	out := c.fold(zero, c.sink)
	if live {
		out = c.fold(out, c.pending)
	}
	return out
}

// note adds a completed run's part to the live view.
func (c *collector[S]) note(part S) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = c.fold(c.pending, part)
}

// merge ends a batch of n runs: the live view's pending runs give way to the
// batch's parts folded in input order. A failed run's part is the zero S.
func (c *collector[S]) merge(n int, part func(i int) S) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero S
	c.pending = zero
	if !c.enabled {
		return
	}
	for i := 0; i < n; i++ {
		c.sink = c.fold(c.sink, part(i))
	}
}

var telemetrySink = collector[*telemetry.Snapshot]{
	fold: func(into, from *telemetry.Snapshot) *telemetry.Snapshot {
		if into == nil {
			into = telemetry.NewSnapshot()
		}
		if from != nil {
			runs := into.Runs + from.Runs // Merge counts 0 runs as 1: keep an empty sink's 0
			into.Merge(from)
			into.Runs = runs
		}
		return into
	},
}

// The journal sink renumbers Seq to the fold order, so the aggregate reads as
// one ordered journal.
var journalSink = collector[[]journal.Event]{
	fold: func(into, from []journal.Event) []journal.Event {
		if into == nil {
			into = make([]journal.Event, 0, len(from))
		}
		for _, e := range from {
			e.Seq = uint64(len(into))
			into = append(into, e)
		}
		return into
	},
}

// EnableTelemetry turns on per-run telemetry collection and clears the sink.
func EnableTelemetry() { telemetrySink.reset(true) }

// TelemetryEnabled reports whether runs collect telemetry.
func TelemetryEnabled() bool { return telemetrySink.on() }

// ResetTelemetrySink clears the merged sink (e.g. between per-figure
// sections of a bench sweep) without touching the enabled flag.
func ResetTelemetrySink() { telemetrySink.reset(false) }

// TelemetrySnapshot returns an independent copy of the merged sink.
func TelemetrySnapshot() *telemetry.Snapshot { return telemetrySink.view(false) }

// LiveTelemetrySnapshot returns the merged sink plus any runs that have
// completed in the batch currently in flight. Between batches it equals
// TelemetrySnapshot. Serve this to live readers; export the canonical
// TelemetrySnapshot to files.
func LiveTelemetrySnapshot() *telemetry.Snapshot { return telemetrySink.view(true) }

// EnableJournal turns on per-run security-journal collection and clears the
// sink.
func EnableJournal() { journalSink.reset(true) }

// JournalEnabled reports whether runs collect security-journal events.
func JournalEnabled() bool { return journalSink.on() }

// JournalEvents returns a copy of the merged journal, in merge order.
func JournalEvents() []journal.Event { return journalSink.view(false) }

// LiveJournalEvents is JournalEvents plus the events of runs that completed
// in the batch currently in flight (completion order, Seq renumbered to the
// combined view). Serve this to live readers; export the canonical
// JournalEvents to files.
func LiveJournalEvents() []journal.Event { return journalSink.view(true) }
