package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"fsencr/internal/fsproto"
)

// nShards is the shard count every workload boots with.
const nShards = 2

// maxUnitWrites caps how often the generator rewrites one page or slot.
// The 128th write to a line wraps its 7-bit minor counter, and at this
// commit the file-side wrap leaves the line undecryptable until its next
// write (knownissue_test.go). The contract wants workloads on which no
// operation fails, so the generator steers around the wrap; once that test
// flips to passing the cap can go.
const maxUnitWrites = 120

// opClass splits the op stream the way the metrics do: Read/KVGet are
// read-class, Write/KVPut are write-class.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
)

func (c opClass) String() string {
	if c == classRead {
		return "read"
	}
	return "write"
}

// workloadSpec is one named traffic mix. Every workload has two logical
// clients; each owns one file (or KV store) nobody else writes, so the
// oracle needs no cross-client ordering.
type workloadSpec struct {
	name string
	why  string
	// kv selects the KV API (64-byte values keyed by unit index) instead
	// of file reads/writes at unit-aligned offsets.
	kv bool
	// unit is the bytes one op moves; units is how many each client owns.
	unit  int
	units int
	// readPct is the share of read-class ops in the stream.
	readPct int
	// sameTenant puts both clients under one tenant (one hot shard) as two
	// users; otherwise they are two tenants homed on shards 0 and 1.
	sameTenant bool
	// fabric boots coordinator + node A + empty node B, writes history
	// slots per client, migrates the shard A->B and leaves the clients
	// pinned to A so every op takes one forward hop.
	fabric  bool
	history int
	// kvPool is the KV pool file size (puts are out-of-place: the pool
	// only grows, so it is sized for the fastest run we expect).
	kvPool uint64
}

var workloads = []*workloadSpec{
	{
		name: "read_page", unit: 4096, units: 8192, readPct: 100,
		why: "uniform 4 KiB reads over 2x32 MiB encrypted DAX files on two shards: wire codec, seqlock fast-read path and page decrypt work; the shard worker and PCM writes idle",
	},
	{
		name: "write_page", unit: 4096, units: 1024, readPct: 0, sameTenant: true,
		why: "uniform 4 KiB persisted writes by two users of one tenant (one hot shard): request decode, worker admission, WritePage, merkle and PCM writes work; the fast-read path does none",
	},
	{
		name: "kv_mix", kv: true, unit: 64, units: 16384, readPct: 70, kvPool: 64 << 20,
		why: "70/30 KVGet/KVPut of 64-byte values on two shards: tiny bodies, so fixed per-request cost, worker admission, kvstore and the line-granular datapath dominate, not the payload codec",
	},
	{
		name: "fabric_hop", unit: 256, units: 4096, readPct: 75, sameTenant: true, fabric: true, history: 8192,
		why: "3:1 256-byte reads:writes through one forward hop to a live-migrated, admission-logged shard: the only workload where cluster, the log and replay work; small I/O keeps the hop dominant",
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy with the geometry divided by div (smoke tests).
func (w *workloadSpec) scaled(div int) *workloadSpec {
	c := *w
	c.units = max(w.units/div, 64)
	c.history = w.history / div
	return &c
}

// fastReads reports whether the stack serves the workload's reads on the
// seqlock fast path: file reads on shards that keep no admission log.
func (w *workloadSpec) fastReads() bool { return !w.kv && !w.fabric }

// fileSize is the byte size of one client's file.
func (w *workloadSpec) fileSize() uint64 { return uint64(w.unit) * uint64(w.units) }

// prefill writes version 1 of as many of client's units as fit buf, from
// unit first on, and returns the bytes written.
func (w *workloadSpec) prefill(buf []byte, client, first int) []byte {
	n := min(len(buf)/w.unit, w.units-first)
	for j := 0; j < n; j++ {
		fill(buf[j*w.unit:(j+1)*w.unit], uint32(client), uint32(first+j), 1)
	}
	return buf[:n*w.unit]
}

// identity is one logical client's credentials and object name.
type identity struct {
	tenant string
	uid    uint32
	pass   string
	object string // file name or KV store name
}

// tenantOn returns the first name of a fixed candidate sequence that homes
// on the wanted shard, skipping names already taken.
func tenantOn(shard int, taken ...string) string {
next:
	for i := 0; ; i++ {
		name := fmt.Sprintf("tenant%02d", i)
		for _, t := range taken {
			if t == name {
				continue next
			}
		}
		if fsproto.ShardIndex(fsproto.TenantGID(name), nShards) == shard {
			return name
		}
	}
}

// identities places the two clients: two tenants on shards 0 and 1, or two
// users of the shard-0 tenant.
func (w *workloadSpec) identities() [2]identity {
	t0 := tenantOn(0)
	t1 := tenantOn(1)
	if w.sameTenant {
		t1 = t0
	}
	var ids [2]identity
	for c, t := range []string{t0, t1} {
		ids[c] = identity{tenant: t, uid: uint32(c + 1), pass: fmt.Sprintf("bench-pass-%d", c), object: fmt.Sprintf("obj%d", c)}
	}
	return ids
}

// intruder is a third tenant whose cross-tenant read must be denied.
func (w *workloadSpec) intruder() identity {
	ids := w.identities()
	return identity{tenant: tenantOn(1, ids[0].tenant, ids[1].tenant), uid: 9, pass: "intruder-pass", object: "none"}
}

// op is one generated request. version is set for writes only: the
// (client, idx, version) triple the payload is derived from.
type op struct {
	class   opClass
	client  int
	idx     uint32
	version uint32
}

// clientState is one logical client's generator and oracle. ver[idx] is
// the last acknowledged version of the unit (prefill writes version 1), and
// doubles as the unit's write count for the maxUnitWrites guard. It is
// touched only by the goroutine driving the client.
type clientState struct {
	spec   *workloadSpec
	client int
	rng    *rand.Rand
	ver    []uint32
	// dirty lists units written since the last verification sweep; only
	// the counted pass, which sweeps, sets track.
	track    bool
	dirty    []uint32
	dirtySet map[uint32]struct{}
}

func newClientState(w *workloadSpec, client int) *clientState {
	cs := &clientState{spec: w, client: client, ver: make([]uint32, w.units), dirtySet: make(map[uint32]struct{})}
	for i := range cs.ver {
		cs.ver[i] = 1
	}
	return cs
}

// reseed restarts the op stream: the same seed yields the same
// (class, idx) sequence whatever the oracle has seen since.
func (cs *clientState) reseed(seed uint64) {
	cs.rng = rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(cs.client)))
}

// next draws the client's next op.
func (cs *clientState) next() op {
	o := op{client: cs.client, idx: uint32(cs.rng.IntN(cs.spec.units))}
	if cs.rng.IntN(100) >= cs.spec.readPct {
		o.class = classWrite
		if !cs.spec.kv {
			for n := 0; cs.ver[o.idx] >= maxUnitWrites && n < cs.spec.units; n++ {
				o.idx = (o.idx + 1) % uint32(cs.spec.units)
			}
		}
		o.version = cs.ver[o.idx] + 1
	}
	return o
}

// acked records an acknowledged write.
func (cs *clientState) acked(o op) {
	cs.ver[o.idx] = o.version
	if _, ok := cs.dirtySet[o.idx]; cs.track && !ok {
		cs.dirtySet[o.idx] = struct{}{}
		cs.dirty = append(cs.dirty, o.idx)
	}
}

// takeDirty returns and clears the units written since the last call.
func (cs *clientState) takeDirty() []uint32 {
	d := cs.dirty
	cs.dirty = nil
	clear(cs.dirtySet)
	return d
}

// expect checks bytes read from unit idx against the last acknowledged
// version. scratch must hold spec.unit bytes.
func (cs *clientState) expect(idx uint32, got, scratch []byte) bool {
	fill(scratch[:cs.spec.unit], uint32(cs.client), idx, cs.ver[idx])
	return bytes.Equal(got, scratch[:cs.spec.unit])
}

// fill writes the payload of (client, idx, version) into dst: a 16-byte
// header naming the triple, then a xorshift stream seeded from it, so any
// stale, torn or misplaced unit compares unequal.
func fill(dst []byte, client, idx, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:], 0xf5e0c0de^client)
	binary.LittleEndian.PutUint32(dst[4:], idx)
	binary.LittleEndian.PutUint32(dst[8:], version)
	binary.LittleEndian.PutUint32(dst[12:], ^(client + idx + version))
	x := (uint64(client)<<56 | uint64(version)<<32 | uint64(idx)) * 0x9e3779b97f4a7c15
	x |= 1
	for off := 16; off+8 <= len(dst); off += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
}
