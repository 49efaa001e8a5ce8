package server_test

import (
	"net/http/httptest"
	"testing"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

// TestSLOSmoke is the CI gate for the SLO plane: loadgen traffic over real
// HTTP must leave every tenant with live latency quantiles, burn-rate
// gauges, queue-wait accounting and a fully-counted trace sampler on the
// metrics surface.
func TestSLOSmoke(t *testing.T) {
	svc := server.New(server.Options{
		Shards: 2,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	defer svc.Close()
	hs := httptest.NewServer(svc.Mux())
	defer hs.Close()

	rep, err := fsclient.RunLoadgen(hs.URL, fsclient.LoadgenOptions{
		Clients: 8,
		Tenants: 2,
		Ops:     16,
		Mix:     "3:1",
		Seed:    11,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d unexpected errors (first: %s)", rep.Errors, rep.FirstError)
	}

	snap := svc.MetricsSnapshot()
	for _, tenant := range []string{"tenant00", "tenant01"} {
		prefix := "server.tenant." + tenant + "."
		h := snap.Histograms[prefix+"request_ns"]
		if h == nil || h.Count == 0 {
			t.Fatalf("%s: no request latency recorded", tenant)
		}
		p50, p99 := snap.Gauges[prefix+"p50_ns"], snap.Gauges[prefix+"p99_ns"]
		p999 := snap.Gauges[prefix+"p999_ns"]
		if p50 == 0 || p99 < p50 || p999 < p99 {
			t.Fatalf("%s: degenerate quantiles p50=%d p99=%d p999=%d", tenant, p50, p99, p999)
		}
		if _, ok := snap.Gauges[prefix+"slo_burn_milli"]; !ok {
			t.Fatalf("%s: burn-rate gauge missing", tenant)
		}
		good := snap.Counters[prefix+"slo_good_total"]
		bad := snap.Counters[prefix+"slo_bad_total"]
		if good+bad == 0 {
			t.Fatalf("%s: no requests scored against the SLO", tenant)
		}
		// Healthy local traffic: nothing 5xx'd, so the only possible burn is
		// over-latency, and bad must stay a small minority.
		if bad > good {
			t.Fatalf("%s: bad %d > good %d on a healthy run", tenant, bad, good)
		}

		// Satellite 2: per-tenant queue-wait accounting from fair admission,
		// keyed by the tenant's group on its shard's deterministic registry.
		gid := fsproto.TenantGID(tenant)
		qw := snap.Histograms[sprintfTenantHist(gid, "queue_wait_cycles")]
		if qw == nil || qw.Count == 0 {
			t.Fatalf("%s (g%d): no queue-wait observations", tenant, gid)
		}
		svcH := snap.Histograms[sprintfTenantHist(gid, "service_cycles")]
		if svcH == nil || svcH.Count == 0 || svcH.Sum == 0 {
			t.Fatalf("%s (g%d): no service-time observations", tenant, gid)
		}
	}

	// The tail sampler accounted for every sampled request it saw.
	kept := snap.Counters["trace.kept_total"]
	dropped := snap.Counters["trace.dropped_total"]
	if kept == 0 {
		t.Fatal("sampler kept no traces")
	}
	if kept+dropped == 0 {
		t.Fatal("sampler made no decisions")
	}
	if snap.Gauges["server.tenant.tenant00.slo_burn_milli"] != 0 &&
		snap.Counters["server.request_errors_total"] == 0 {
		// Burn without any error implies over-latency requests; that is
		// legal on a loaded CI host, so this is informational only.
		t.Logf("tenant00 burning budget on latency alone: %dm",
			snap.Gauges["server.tenant.tenant00.slo_burn_milli"])
	}
}

// sprintfTenantHist names the per-tenant-group shard histograms.
func sprintfTenantHist(gid uint32, metric string) string {
	return "server.tenant.g" + uitoa(gid) + "." + metric
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [10]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
