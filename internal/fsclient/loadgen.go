package fsclient

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/sim"
)

// Loadgen op kinds.
const (
	lgLogin = iota
	lgCreate
	lgWrite
	lgRead
	lgCrossRead
	lgLogout
	lgStat
)

// lgOp is one precomputed operation of a client's op list.
type lgOp struct {
	kind   int
	off    uint64
	n      int
	victim int // lgCrossRead: client whose file is probed
}

// LoadgenOptions configures RunLoadgen.
type LoadgenOptions struct {
	// Clients is the number of concurrent sessions (default 8).
	Clients int
	// Tenants is the number of distinct tenants the clients are spread
	// over round-robin (default 2).
	Tenants int
	// Ops is the number of data operations per client after setup
	// (default 64).
	Ops int
	// Mix weights reads against writes: "3:1", or "read:write" for 1:1.
	Mix string
	// Seed drives the per-client operation RNGs.
	Seed uint64
	// CrossEvery makes every Nth data op a cross-tenant read probe — the
	// access the kernel must deny (0 disables; default 8).
	CrossEvery int
	// StatEvery makes every Nth data op a metadata stat of the client's own
	// file (0 disables). The server answers stats off the admission plane.
	StatEvery int
	// Coordinator, when set, routes every client through the cluster
	// placement table (DialCluster) instead of the fixed base URL, so the
	// load follows shards across migrations and failovers.
	Coordinator string
}

func (o *LoadgenOptions) defaults() {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Tenants <= 0 {
		o.Tenants = 2
	}
	if o.Tenants > o.Clients {
		o.Tenants = o.Clients
	}
	if o.Ops <= 0 {
		o.Ops = 64
	}
	if o.CrossEvery == 0 {
		o.CrossEvery = 8
	}
}

// OpLatency is one op kind's client-observed throughput and latency
// distribution over the run (wall-clock; failed calls included — a
// denial's cost is part of the workload).
type OpLatency struct {
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
}

// LoadgenReport is the outcome of one load run.
type LoadgenReport struct {
	Clients int    `json:"clients"`
	Tenants int    `json:"tenants"`
	Ops     uint64 `json:"ops"` // operations attempted, setup included

	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Stats  uint64 `json:"stats"`

	CrossProbes uint64 `json:"cross_probes"` // cross-tenant read attempts
	CrossDenied uint64 `json:"cross_denied"` // ... denied by permission bits or the per-file key

	Busy   uint64 `json:"busy"`   // backpressure rejections
	Errors uint64 `json:"errors"` // unexpected failures
	// Leaks counts cross-tenant probes that returned data, plus own-file
	// reads of previously-written ranges observing any byte other than the
	// client's own pattern. Zero is the isolation acceptance criterion.
	Leaks      uint64 `json:"leaks"`
	FirstError string `json:"first_error,omitempty"`

	// ElapsedNs is the wall-clock duration of the whole run; OpsPerSec is
	// Ops over that window.
	ElapsedNs uint64  `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// Latency breaks throughput and p50/p99 latency down by op kind,
	// keyed "create" / "write" / "read" / "cross_read" / "stat".
	Latency map[string]OpLatency `json:"latency"`
	// TenantLatency breaks the same distributions down one level further:
	// tenant name -> op kind -> latency. A noisy neighbor shows up here as
	// one tenant's p99 diverging from the others' under the same mix.
	TenantLatency map[string]map[string]OpLatency `json:"tenant_latency"`
}

// lgKindNames names the timed op kinds for the latency report.
var lgKindNames = map[int]string{
	lgCreate:    "create",
	lgWrite:     "write",
	lgRead:      "read",
	lgCrossRead: "cross_read",
	lgStat:      "stat",
}

// lgKindOrder fixes the rendering order of the latency breakdowns.
var lgKindOrder = []string{"create", "write", "read", "cross_read", "stat"}

func (r *LoadgenReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clients %d tenants %d ops %d reads %d writes %d cross-probes %d cross-denied %d busy %d errors %d leaks %d",
		r.Clients, r.Tenants, r.Ops, r.Reads, r.Writes, r.CrossProbes, r.CrossDenied, r.Busy, r.Errors, r.Leaks)
	fmt.Fprintf(&b, "\nelapsed %.3fs  %.1f ops/s", float64(r.ElapsedNs)/1e9, r.OpsPerSec)
	for _, k := range lgKindOrder {
		l, ok := r.Latency[k]
		if !ok || l.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%-10s ops %-7d %9.1f ops/s  p50 %9.1fus  p99 %9.1fus",
			k, l.Ops, l.OpsPerSec, l.P50Us, l.P99Us)
	}
	tenants := make([]string, 0, len(r.TenantLatency))
	for t := range r.TenantLatency {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		for _, k := range lgKindOrder {
			l, ok := r.TenantLatency[t][k]
			if !ok || l.Ops == 0 {
				continue
			}
			fmt.Fprintf(&b, "\n%s/%-10s ops %-7d %9.1f ops/s  p50 %9.1fus  p99 %9.1fus",
				t, k, l.Ops, l.OpsPerSec, l.P50Us, l.P99Us)
		}
	}
	return b.String()
}

// percentile returns the p-quantile (0..1) of sorted samples by
// nearest-rank.
func percentile(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Loadgen shape: every client's file and I/O sizes.
const (
	lgPageSize = 4096
	lgPages    = 4
	lgFileSize = lgPages * lgPageSize
	lgIOSize   = 256
)

// Per-client identity helpers. Pure functions of the client index, so
// reruns place the same tenants on the same shards.
func lgTenant(c, tenants int) string { return fmt.Sprintf("tenant%02d", c%tenants) }
func lgFile(c int) string            { return fmt.Sprintf("f%03d.dat", c) }
func lgPassphrase(c, tenants int) string {
	return "pw-" + lgTenant(c, tenants) + fmt.Sprintf("-u%d", c)
}

// Pattern returns client c's fill byte. Reads of the client's own file
// must observe only zero or this byte; anything else is a leak.
func Pattern(c int) byte { return byte('A' + c%26) }

// parseMix parses "R:W" integer weights; the words "read"/"write" weigh 1.
func parseMix(mix string) (r, w int) {
	parts := strings.Split(mix, ":")
	if len(parts) == 2 {
		ri, errR := strconv.Atoi(strings.TrimSpace(parts[0]))
		wi, errW := strconv.Atoi(strings.TrimSpace(parts[1]))
		if errR == nil && errW == nil && ri >= 0 && wi >= 0 && ri+wi > 0 {
			return ri, wi
		}
	}
	return 1, 1
}

// crossVictim picks a deterministic client in a different tenant (-1 when
// every client shares one tenant).
func crossVictim(c, clients, tenants int) int {
	for d := 1; d < clients; d++ {
		v := (c + d) % clients
		if v%tenants != c%tenants {
			return v
		}
	}
	return -1
}

// buildSchedule precomputes every client's op list, a pure function of
// (seed, client index); the clients run their lists concurrently.
func buildSchedule(o LoadgenOptions) [][]lgOp {
	readW, writeW := parseMix(o.Mix)
	ops := make([][]lgOp, o.Clients)
	for c := 0; c < o.Clients; c++ {
		rng := sim.NewRNG(o.Seed<<20 + uint64(c) + 1)
		victim := crossVictim(c, o.Clients, o.Tenants)
		list := []lgOp{
			{kind: lgLogin},
			{kind: lgCreate},
			// First page fully written so an insider ciphertext dump of
			// page 0 can be checked against the pattern.
			{kind: lgWrite, off: 0, n: lgPageSize},
		}
		// Chunks this client has written. Reads sample only from these: a
		// never-written region decrypts NVM zeros through the file OTP,
		// i.e. reads back as pad bytes, which the leak check must not
		// mistake for foreign plaintext.
		written := make([]uint64, 0, lgFileSize/lgIOSize)
		for off := uint64(0); off < lgPageSize; off += lgIOSize {
			written = append(written, off)
		}
		for i := 0; i < o.Ops; i++ {
			if o.CrossEvery > 0 && victim >= 0 && (i+1)%o.CrossEvery == 0 {
				list = append(list, lgOp{kind: lgCrossRead, victim: victim, n: lgIOSize})
				continue
			}
			if o.StatEvery > 0 && (i+1)%o.StatEvery == 0 {
				list = append(list, lgOp{kind: lgStat})
				continue
			}
			if rng.Intn(readW+writeW) < readW {
				off := written[rng.Intn(len(written))]
				list = append(list, lgOp{kind: lgRead, off: off, n: lgIOSize})
			} else {
				off := uint64(rng.Intn(lgFileSize/lgIOSize)) * lgIOSize
				list = append(list, lgOp{kind: lgWrite, off: off, n: lgIOSize})
				written = append(written, off)
			}
		}
		list = append(list, lgOp{kind: lgLogout})
		ops[c] = list
	}
	return ops
}

// RunLoadgen drives one load run against a server and reports what
// happened. base is the server URL. The run aborts a client whose login
// fails but treats op-level denials as data: expected for cross-tenant
// probes, counted otherwise.
func RunLoadgen(base string, o LoadgenOptions) (*LoadgenReport, error) {
	o.defaults()
	schedule := buildSchedule(o)
	rep := &LoadgenReport{Clients: o.Clients, Tenants: o.Tenants}

	var (
		ops, reads, writes, stats, probes, denied, busy, errs, leaks atomic.Uint64
		errOnce                                                      sync.Once
		firstErr                                                     string
		latMu                                                        sync.Mutex
		lats                                                         = map[int][]uint64{}            // op kind -> latency ns samples
		tlats                                                        = map[string]map[int][]uint64{} // tenant -> op kind -> samples
	)
	noteErr := func(c int, op lgOp, err error) {
		errs.Add(1)
		errOnce.Do(func() {
			// APIError already carries the X-Request-Id echo; surface it
			// explicitly so a transport-level error without one still reads
			// unambiguously.
			var ae *APIError
			if errors.As(err, &ae) && ae.RequestID != "" {
				firstErr = fmt.Sprintf("client %d op kind %d request_id %s: %v", c, op.kind, ae.RequestID, err)
				return
			}
			firstErr = fmt.Sprintf("client %d op kind %d: %v", c, op.kind, err)
		})
	}

	runStart := time.Now()
	// setup holds every client's ops after its create until each client
	// has created its file (or given up), so a cross-tenant probe always
	// finds its victim's file.
	var wg, setup sync.WaitGroup
	setup.Add(o.Clients)
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			setUp := sync.OnceFunc(setup.Done)
			defer setUp()
			cl := Dial(base)
			var cc *ClusterClient
			if o.Coordinator != "" {
				var derr error
				if cc, derr = DialCluster(o.Coordinator); derr != nil {
					noteErr(c, lgOp{}, derr)
					return
				}
				cl = cc.Client
			}
			// A cluster login swaps cl (nil before it); close the last one.
			defer func() {
				if cl != nil {
					cl.Close()
				}
			}()
			tenant := lgTenant(c, o.Tenants)
			pat := Pattern(c)
			// One pattern buffer per client; writes slice it instead of
			// allocating per op (Client marshals the body before returning,
			// so the aliased slice is never retained).
			pattern := bytes.Repeat([]byte{pat}, lgPageSize)
			// Latency samples stay client-local until the end of the run.
			local := map[int][]uint64{}
			defer func() {
				latMu.Lock()
				tl := tlats[tenant]
				if tl == nil {
					tl = map[int][]uint64{}
					tlats[tenant] = tl
				}
				for k, s := range local {
					lats[k] = append(lats[k], s...)
					tl[k] = append(tl[k], s...)
				}
				latMu.Unlock()
			}()
			var start time.Time
			record := func(kind int) {
				local[kind] = append(local[kind], uint64(time.Since(start)))
			}
			for i, op := range schedule[c] {
				if i > 0 && schedule[c][i-1].kind == lgCreate {
					setUp()
					setup.Wait()
				}
				ops.Add(1)
				start = time.Now()
				var err error
				switch op.kind {
				case lgLogin:
					if cc != nil {
						// Cluster login dials the tenant's home-shard owner and
						// swaps the embedded transport client.
						err = cc.Login(tenant, uint32(c), lgPassphrase(c, o.Tenants))
						cl = cc.Client
					} else {
						err = cl.Login(tenant, uint32(c), lgPassphrase(c, o.Tenants))
					}
					if err != nil {
						noteErr(c, op, err)
						return // nothing else can run without a session
					}
					continue
				case lgLogout:
					// A failed logout leaves a live session server-side —
					// that is an error, not noise.
					if err := cl.Logout(); err != nil {
						noteErr(c, op, err)
					}
					continue
				case lgCreate:
					err = cl.Create(fsproto.CreateRequest{
						Name: lgFile(c), Perm: 0600, Size: lgFileSize, Encrypted: true,
					})
				case lgWrite:
					err = cl.Write(fsproto.WriteRequest{Name: lgFile(c), Offset: op.off, Data: pattern[:op.n]})
					if err == nil {
						writes.Add(1)
					}
				case lgRead:
					var data []byte
					data, err = cl.Read(fsproto.ReadRequest{Name: lgFile(c), Offset: op.off, Length: op.n})
					if err == nil {
						reads.Add(1)
						// The read range was written by this client, so
						// every byte must be its own pattern.
						for _, b := range data {
							if b != pat {
								leaks.Add(1)
								break
							}
						}
					}
				case lgStat:
					var resp fsproto.StatResponse
					resp, err = cl.Stat(fsproto.StatRequest{Name: lgFile(c)})
					if err == nil {
						stats.Add(1)
						if resp.Size != lgFileSize {
							// The file was created at lgFileSize and never
							// resized; anything else is corrupt metadata.
							leaks.Add(1)
						}
					}
				case lgCrossRead:
					probes.Add(1)
					_, err = cl.Read(fsproto.ReadRequest{
						Name:   lgFile(op.victim),
						Tenant: lgTenant(op.victim, o.Tenants),
						Offset: 0, Length: op.n,
					})
					record(lgCrossRead)
					if err == nil {
						// The kernel must deny this: 0600 bits and a
						// foreign per-file key. Data back = breach.
						leaks.Add(1)
						continue
					}
					switch {
					case IsCode(err, fsproto.CodePermission), IsCode(err, fsproto.CodeWrongPassphrase):
						denied.Add(1)
					case IsCode(err, fsproto.CodeNotFound):
						// The victim's setup failed, which counted its own
						// error — not a second one.
					default:
						noteErr(c, op, err)
					}
					continue
				}
				record(op.kind)
				if err != nil {
					if IsCode(err, fsproto.CodeBusy) {
						busy.Add(1)
					} else {
						noteErr(c, op, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(runStart)

	rep.Ops = ops.Load()
	rep.Reads = reads.Load()
	rep.Writes = writes.Load()
	rep.Stats = stats.Load()
	rep.CrossProbes = probes.Load()
	rep.CrossDenied = denied.Load()
	rep.Busy = busy.Load()
	rep.Errors = errs.Load()
	rep.Leaks = leaks.Load()
	rep.FirstError = firstErr

	rep.ElapsedNs = uint64(elapsed)
	if s := elapsed.Seconds(); s > 0 {
		rep.OpsPerSec = float64(rep.Ops) / s
	}
	summarize := func(byKind map[int][]uint64) map[string]OpLatency {
		out := make(map[string]OpLatency, len(lgKindNames))
		for kind, name := range lgKindNames {
			samples := byKind[kind]
			if len(samples) == 0 {
				continue
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			out[name] = OpLatency{
				Ops:       uint64(len(samples)),
				OpsPerSec: float64(len(samples)) / elapsed.Seconds(),
				P50Us:     float64(percentile(samples, 0.50)) / 1e3,
				P99Us:     float64(percentile(samples, 0.99)) / 1e3,
			}
		}
		return out
	}
	rep.Latency = summarize(lats)
	rep.TenantLatency = make(map[string]map[string]OpLatency, len(tlats))
	for tenant, byKind := range tlats {
		rep.TenantLatency[tenant] = summarize(byKind)
	}
	return rep, nil
}
