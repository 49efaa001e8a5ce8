package memctrl

import (
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/telemetry"
)

// Instrument attaches a telemetry registry to the controller and to every
// structure it owns (PCM, OTT table + region, Merkle tree). A nil registry
// detaches everything; all handles degrade to no-ops, which is the
// compiled-out configuration.
func (c *Controller) Instrument(reg *telemetry.Registry) {
	c.tel = reg
	c.trace = reg.Scope()
	c.tReadCycles = reg.Histogram("mc.read_cycles")
	c.tWriteAccept = reg.Histogram("mc.write_accept_cycles")
	c.tMetaFetch = reg.Histogram("mc.meta_fetch_cycles")
	c.tBMTWalk = reg.Histogram("mc.bmt_walk_depth")
	c.tKeyLookup = reg.Histogram("mc.key_lookup_cycles")

	c.PCM.Instrument(reg)
	if c.ottTable != nil {
		c.ottTable.Instrument(reg)
	}
	if c.ottRegion != nil {
		c.ottRegion.Instrument(reg)
	}
	if c.mt != nil {
		c.mt.Instrument(reg)
	}
	if c.aud != nil {
		c.aud.Instrument(reg)
	}
}

// span records a controller-side span; no-op when uninstrumented. The
// controller has no notion of which core issued a request, so its spans run
// on tid 0.
func (c *Controller) span(cat, name string, start, end uint64) {
	c.tel.Span(cat, name, start, end, 0)
}

// AttachJournal attaches a security-event journal to the controller and to
// the clock-less structures it owns (OTT table, Merkle tree), which stamp
// their events with the controller's in-flight request cycle. A nil
// journal detaches everything; every emit degrades to one predictable
// branch, which is the compiled-out configuration the overhead guard
// measures.
func (c *Controller) AttachJournal(j *journal.Journal) {
	c.jrn = j
	clock := func() uint64 { return c.jcycle }
	if c.ottTable != nil {
		c.ottTable.AttachJournal(j, clock)
	}
	if c.mt != nil {
		c.mt.AttachJournal(j, clock)
	}
}

// Journal returns the attached security-event journal (nil when detached).
func (c *Controller) Journal() *journal.Journal { return c.jrn }

// EnableAudit turns on the FOX-style tamper-evident audit plane: a
// hash-chained log of page-granularity file accesses, written through to
// the reserved device region at AuditBase (capacity <= 0 uses the audit
// package default). Idempotent; returns the log. While disabled (the
// default), every audit hook on the datapath costs one predictable branch
// — the audit overhead guard pins this.
func (c *Controller) EnableAudit(capacity int) *audit.Log {
	if c.aud == nil {
		c.aud = audit.New(c.PCM, AuditBase, capacity)
		c.aud.Instrument(c.tel)
	}
	return c.aud
}

// Audit returns the audit log (nil when disabled).
func (c *Controller) Audit() *audit.Log { return c.aud }

// noteCycle records the simulated cycle of the request entering the
// datapath, so journal events emitted from clock-less owned structures
// carry a meaningful timestamp. One plain store; the field is only read
// from the simulation goroutine.
func (c *Controller) noteCycle(now config.Cycle) { c.jcycle = uint64(now) }
