package server_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

// TestMaliciousClientSmoke runs the protocol-level attack campaign over
// real HTTP: forged/replayed/absent tokens, cross-tenant overrides, wrong
// passphrases, oversized/truncated/forged requests. Every attack must be
// refused with its documented stable code and zero plaintext leaked. CI
// runs this package under -race, so the hostile traffic doubles as a race
// probe of the admission path.
func TestMaliciousClientSmoke(t *testing.T) {
	svc := server.New(server.Options{
		Shards: 2,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	defer svc.Close()
	hs := httptest.NewServer(svc.Mux())
	defer hs.Close()

	rep, err := fsclient.RunMalice(hs.URL)
	if err != nil {
		t.Fatalf("malice campaign: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("attacks got through:\n%s", rep)
	}
	// 19 through the HTTP client (from the second on, over a connection the
	// request loop holds) and 9 from a raw socket.
	if len(rep.Attacks) != 28 {
		t.Fatalf("campaign ran %d attacks, want 28:\n%s", len(rep.Attacks), rep)
	}
	// Refusing them left the audit plane exact: every chain verifies, and
	// the chain heads account for exactly the records retained.
	if err := svc.VerifyAudit(); err != nil {
		t.Fatalf("audit chain after the campaign: %v", err)
	}

	// The hostile traffic must be visible on the security surfaces.
	snap := svc.MetricsSnapshot()
	if snap.Counters["server.auth_failures_total"] == 0 {
		t.Fatal("wrong-passphrase attack left no auth-failure count")
	}
	if snap.Counters["server.cross_tenant_denials_total"] == 0 {
		t.Fatal("cross-tenant attack left no denial count")
	}
	if _, ok := snap.Gauges["journal.drops_total"]; !ok {
		t.Fatal("journal.drops_total missing from the metrics surface")
	}
	heads := uint64(0)
	for name, v := range snap.Gauges {
		if strings.HasSuffix(name, ".audit_head_seq") {
			heads += v
		}
	}
	if n := uint64(len(svc.AuditRecords())); n == 0 || heads != n {
		t.Fatalf("audit chain heads sum to %d, the service holds %d records", heads, n)
	}
}

// TestAuditPlane drives tenant traffic, then checks the tamper-evident
// audit plane end to end: records attribute pages to the right tenant,
// every shard's chain verifies, /audit.jsonl exports it, the chain head is
// a metric, and one flipped bit anywhere breaks verification.
func TestAuditPlane(t *testing.T) {
	svc := server.New(server.Options{
		Shards: 2,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	defer svc.Close()
	hs := httptest.NewServer(svc.Mux())
	defer hs.Close()

	cl := fsclient.Dial(hs.URL)
	if err := cl.Login("audit-tenant", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cl.Create(fsproto.CreateRequest{Name: "a.dat", Perm: 0600, Size: 8192, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := cl.Write(fsproto.WriteRequest{Name: "a.dat", Offset: 0, Data: payload}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := cl.Read(fsproto.ReadRequest{Name: "a.dat", Offset: 0, Length: 4096}); err != nil {
		t.Fatalf("read: %v", err)
	}

	recs := svc.AuditRecords()
	if len(recs) == 0 {
		t.Fatal("no audit records after tenant traffic")
	}
	var sawTenant, sawWrite bool
	for _, r := range recs {
		if r.Group == cl.GID() {
			sawTenant = true
			if r.Op.String() == "write_page" {
				sawWrite = true
			}
		}
	}
	if !sawTenant || !sawWrite {
		t.Fatalf("audit records missing tenant attribution (tenant %v write %v)", sawTenant, sawWrite)
	}
	if err := svc.VerifyAudit(); err != nil {
		t.Fatalf("audit chain broken on honest run: %v", err)
	}

	// Export surface: one JSON object per line, shard-annotated.
	resp, err := http.Get(hs.URL + "/audit.jsonl")
	if err != nil {
		t.Fatalf("GET /audit.jsonl: %v", err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		if _, ok := doc["chain"]; !ok {
			t.Fatalf("audit line missing chain value: %q", sc.Text())
		}
		lines++
	}
	if lines != len(recs) {
		t.Fatalf("/audit.jsonl served %d lines, service holds %d records", lines, len(recs))
	}

	// Chain-head metric per shard.
	snap := svc.MetricsSnapshot()
	head := uint64(0)
	for name, v := range snap.Gauges {
		if strings.HasSuffix(name, ".audit_head_seq") {
			head += v
		}
	}
	if head == 0 {
		t.Fatal("audit_head_seq gauges all zero after traffic")
	}

	// Tamper with one retained record on the shard that served the tenant:
	// verification must break, and restoring the bit must heal it.
	sh := svc.Shards()[fsproto.ShardIndex(cl.GID(), 2)]
	lo := sh.Aud.HeadSeq() - 1
	if !sh.Aud.FlipBit(lo, 13) {
		t.Fatalf("FlipBit refused retained record %d", lo)
	}
	if err := svc.VerifyAudit(); err == nil {
		t.Fatal("tampered audit record not detected")
	}
	sh.Aud.FlipBit(lo, 13)
	if err := svc.VerifyAudit(); err != nil {
		t.Fatalf("restored chain still broken: %v", err)
	}
}
