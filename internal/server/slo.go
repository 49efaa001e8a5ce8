// slo.go: request-trace context propagation and the per-tenant SLO plane.
//
// The HTTP layer parses the client's TraceContext into the request context;
// ops.go forwards it into shard admission. Separately, every completed
// request is scored against the tenant's latency SLO on the host-side
// (wall-clock) registry: a per-tenant latency histogram feeds p50/p99/p999
// gauges, and a good/bad counter pair feeds an error-budget burn-rate
// gauge. "Bad" means server-fault or over-latency — expected denials
// (4xx: permission, wrong passphrase, busy) do not burn a tenant's budget.
package server

import (
	"context"
	"sync"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/telemetry"
)

type traceCtxKey struct{}

// WithTrace returns ctx carrying the request's trace context.
func WithTrace(ctx context.Context, tc fsproto.TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the trace context (zero value when absent).
func TraceFromContext(ctx context.Context) fsproto.TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(fsproto.TraceContext)
	return tc
}

// The SLO every tenant is scored against: requests finishing within the
// latency bound count toward the objective fraction of good requests.
const (
	SLOLatency   = 50 * time.Millisecond
	SLOObjective = 0.99
)

// tenantSLO is one tenant's host-side SLO accounting.
type tenantSLO struct {
	name  string
	hNs   *telemetry.Histogram
	cGood *telemetry.Counter
	cBad  *telemetry.Counter
}

// sloTable tracks per-tenant SLO state, created at first login.
type sloTable struct {
	mu      sync.RWMutex
	tenants map[string]*tenantSLO
	reg     *telemetry.Registry
}

func newSLOTable(reg *telemetry.Registry) *sloTable {
	return &sloTable{tenants: make(map[string]*tenantSLO), reg: reg}
}

// tenant returns (creating if needed) the tenant's SLO record.
func (t *sloTable) tenant(name string) *tenantSLO {
	t.mu.RLock()
	ts, ok := t.tenants[name]
	t.mu.RUnlock()
	if ok {
		return ts
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts, ok = t.tenants[name]; ok {
		return ts
	}
	prefix := "server.tenant." + name + "."
	ts = &tenantSLO{
		name:  name,
		hNs:   t.reg.Histogram(prefix + "request_ns"),
		cGood: t.reg.Counter(prefix + "slo_good_total"),
		cBad:  t.reg.Counter(prefix + "slo_bad_total"),
	}
	t.tenants[name] = ts
	return ts
}

// names returns the registered tenant names (unordered).
func (t *sloTable) names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.tenants))
	for n := range t.tenants {
		out = append(out, n)
	}
	return out
}

// noteRequest scores one completed request for the session's tenant.
// status is the HTTP status the handler answered with; dur is wall-clock.
func (svc *Service) noteRequest(sess *Session, dur time.Duration, status int) {
	if sess == nil {
		return
	}
	ts := svc.slo.tenant(sess.tenant)
	ts.hNs.Observe(uint64(dur))
	// Bad = the service failed the tenant: a 5xx answer (internal fault or
	// timeout) or an over-latency success. Expected 4xx denials — the
	// security model working as designed — stay good.
	if status >= 500 || (status < 400 && dur > SLOLatency) {
		ts.cBad.Inc()
		return
	}
	ts.cGood.Inc()
}

// injectSLOGauges computes the derived per-tenant gauges into an already
// captured snapshot: latency quantiles from the tenant's histogram and the
// error-budget burn rate from the good/bad counters. Burn is expressed in
// milli-units: 1000 means bad requests are arriving exactly at the budget
// rate (1 - objective); 0 means no burn.
func (svc *Service) injectSLOGauges(out *telemetry.Snapshot) {
	const budget = 1 - SLOObjective
	for _, name := range svc.slo.names() {
		prefix := "server.tenant." + name + "."
		if h := out.Histograms[prefix+"request_ns"]; h != nil && h.Count > 0 {
			out.Gauges[prefix+"p50_ns"] = uint64(h.Quantile(0.50))
			out.Gauges[prefix+"p99_ns"] = uint64(h.Quantile(0.99))
			out.Gauges[prefix+"p999_ns"] = uint64(h.Quantile(0.999))
		}
		good := out.Counters[prefix+"slo_good_total"]
		bad := out.Counters[prefix+"slo_bad_total"]
		burn := uint64(0)
		if total := good + bad; total > 0 {
			badFrac := float64(bad) / float64(total)
			burn = uint64(badFrac / budget * 1000)
		}
		out.Gauges[prefix+"slo_burn_milli"] = burn
	}
}

// mintServerTraceID derives a trace ID for requests arriving without one,
// so every response still carries a joinable X-Request-Id.
func (svc *Service) mintServerTraceID() uint64 {
	return telemetry.MintTraceID(svc.traceBase, svc.traceSeq.Add(1))
}
