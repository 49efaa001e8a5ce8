package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/kvstore"
	"fsencr/internal/memctrl"
	"fsencr/internal/merkle"
	"fsencr/internal/pcm"
	"fsencr/internal/pmem"
	"fsencr/internal/server"
	"fsencr/internal/stats"
)

// span is one timed call into a layer. Spans of one logical op share Op;
// Parent is the span of the layer pass that issued the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the probe replay's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	// Span 0 is the replay itself, so every pass has a parent.
	return &tracer{t0: time.Now(), spans: []span{{Name: "probe_replay", Parent: -1, Op: -1}}}
}

// open starts a span and returns its id; done stamps its end.
func (t *tracer) open(name string, parent, opID int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Op: opID, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) done(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// record adds a finished call of known duration ending now.
func (t *tracer) record(name string, parent, opID int, dur time.Duration) {
	end := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Op: opID, Start: end - int64(dur), End: end})
}

func (t *tracer) write(dir, workload string, seed uint64) error {
	t.done(0)
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// passResult is one layer's replay: per-class call durations, heap
// allocations per op, and the ops that failed.
type passResult struct {
	durs [2][]time.Duration
	// traced and untraced hold, block by block, the calls the fsclient pass
	// made with span recording on and off, to price the tracing itself.
	traced, untraced [][]time.Duration
	allocs           float64
	attempted        int64
	failed           int64
	first            *failure
}

// sortDurs orders the per-class durations once a pass is over.
func (p *passResult) sortDurs() {
	slices.Sort(p.durs[classRead])
	slices.Sort(p.durs[classWrite])
}

// us is the median duration of the class in microseconds (0: no such op).
func (p passResult) us(c opClass) float64 { return quantile(p.durs[c], 0.5) }

// all is the median over both classes.
func (p passResult) all() float64 {
	d := slices.Concat(p.durs[0], p.durs[1])
	slices.Sort(d)
	return quantile(d, 0.5)
}

// traceOverhead is the median, over adjacent block pairs, of the traced
// block's median call time over the untraced block's, minus one. Pairing
// neighbours cancels drift and a garbage collection landing in one block.
func (p passResult) traceOverhead() float64 {
	var ratios []float64
	for i := range min(len(p.traced), len(p.untraced)) {
		on, off := slices.Clone(p.traced[i]), slices.Clone(p.untraced[i])
		slices.Sort(on)
		slices.Sort(off)
		if r := ratio(quantile(on, 0.5), quantile(off, 0.5)); r > 0 {
			ratios = append(ratios, r)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// traceBlock is the run of ops the fsclient pass keeps tracing on or off.
const traceBlock = 128

// replay issues the first k ops of the seeded stream through call from one
// goroutine, a span around every call. With alternate set, every other
// block of traceBlock ops is issued with span recording off and lands in
// untraced instead, k ops each way.
func replay(tr *tracer, layer string, seed uint64, k int, states []*clientState, call caller, scratch []byte, alternate bool) passResult {
	for _, cs := range states {
		cs.reseed(seed)
	}
	var res passResult
	parent := tr.open("pass:"+layer, 0, -1)
	defer tr.done(parent)
	if alternate {
		k *= 2
	}
	m0 := mallocs()
	for i := 0; i < k; i++ {
		o := states[i%len(states)].next()
		r := call(o, scratch)
		res.attempted++
		if r.failed() {
			res.failed++
			if res.first == nil {
				res.first = describe("probe:"+layer, o, r)
			}
			continue
		}
		if block := i / traceBlock; alternate {
			into := &res.traced
			if block%2 == 1 {
				into = &res.untraced
			}
			if i%traceBlock == 0 {
				*into = append(*into, nil)
			}
			(*into)[block/2] = append((*into)[block/2], r.dur)
			if block%2 == 1 {
				continue
			}
		}
		res.durs[o.class] = append(res.durs[o.class], r.dur)
		tr.record(layer+"."+o.class.String(), parent, i, r.dur)
	}
	res.allocs = float64(mallocs()-m0) / float64(k)
	res.sortDurs()
	return res
}

// contendedWrites times the workload's write-class op on client 0's
// object from two goroutines on one shard; goroutine g owns the units
// congruent to g mod 2, so the oracle stays race-free.
func (st *stack) contendedWrites(seed uint64, k int) (passResult, error) {
	var res passResult
	if st.spec.readPct == 100 {
		return res, nil
	}
	const g = 2
	parts := make([]passResult, g)
	var sess [g]*server.Session
	for gi := range sess {
		s, err := st.directLogin(0)
		if err != nil {
			return res, err
		}
		sess[gi] = s
	}
	cs := st.states[0]
	var wg sync.WaitGroup
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(gi)))
			scratch := make([]byte, st.spec.unit)
			for i := 0; i < k/g; i++ {
				o := op{class: classWrite, idx: uint32(rng.IntN(st.spec.units/g)*g + gi)}
				o.version = cs.ver[o.idx] + 1
				r := st.issueDirect(sess[gi], o, scratch)
				parts[gi].attempted++
				if r.failed() {
					parts[gi].failed++
					if parts[gi].first == nil {
						parts[gi].first = describe("probe:server.contended", o, r)
					}
					continue
				}
				parts[gi].durs[classWrite] = append(parts[gi].durs[classWrite], r.dur)
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		res.durs[classWrite] = append(res.durs[classWrite], p.durs[classWrite]...)
		res.attempted += p.attempted
		res.failed += p.failed
		if res.first == nil {
			res.first = p.first
		}
	}
	res.sortDurs()
	return res, nil
}

// bareSystem is client 0's object on a kernel.Boot system with nothing
// above it: the layer below the server. It has its own oracle.
type bareSystem struct {
	spec *workloadSpec
	sys  *kernel.System
	proc *kernel.Process
	id   identity
	file *fs.File
	va   addr.Virt
	tree *kvstore.BTree
	cs   *clientState
	// reader and delta serve reads the way the server's fast path does,
	// on workloads whose reads take it.
	reader *kernel.SnapshotReader
	delta  memctrl.ReadDelta
	// lines[class] counts the controller line reads (0) and writes (1)
	// the ops of that class caused.
	lines [2][2]uint64
	ops   [2]uint64
}

func newBareSystem(w *workloadSpec) (*bareSystem, error) {
	id := w.identities()[0]
	b := &bareSystem{spec: w, id: id, cs: newClientState(w, 0),
		sys: kernel.Boot(config.Default(), fsencrMode, kernel.ModeDAX)}
	b.reader = b.sys.NewSnapshotReader()
	uid, gid := fsproto.UserUID(id.tenant, id.uid), fsproto.TenantGID(id.tenant)
	b.sys.Keyring.Login(uid, id.pass)
	b.proc = b.sys.NewProcess(uid, gid)
	buf := make([]byte, prefillChunk)
	if w.kv {
		f, err := b.sys.CreateFile(b.proc, id.object, 0660, w.kvPool, true, id.pass)
		if err != nil {
			return nil, err
		}
		b.file = f
		pool, err := pmem.Create(b.proc, f, w.kvPool)
		if err != nil {
			return nil, err
		}
		if b.tree, err = kvstore.Create(pool, 0); err != nil {
			return nil, err
		}
		for i := 0; i < w.units; i++ {
			fill(buf[:w.unit], 0, uint32(i), 1)
			if err := b.tree.Put(uint64(i), buf[:w.unit]); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	f, err := b.sys.CreateFile(b.proc, id.object, 0600, w.fileSize(), true, id.pass)
	if err != nil {
		return nil, err
	}
	b.file = f
	if b.va, err = b.proc.Mmap(f, f.Size); err != nil {
		return nil, err
	}
	for i := 0; i < w.units; i += prefillChunk / w.unit {
		chunk, va := w.prefill(buf, 0, i), b.va+addr.Virt(i*w.unit)
		if err := b.proc.Write(va, chunk); err != nil {
			return nil, err
		}
		if err := b.proc.Persist(va, uint64(len(chunk))); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// call is what the server does for the op, minus the server: for a read
// the fast path serves, System.SnapshotRead (its deferred side effects
// folded afterwards, as the worker would); else OpenFile + Process.Read,
// Process.Write + Persist, or the bare BTree.
func (b *bareSystem) call(o op, scratch []byte) result {
	w, st := b.spec, b.sys.M.Stats()
	va := b.va + addr.Virt(int(o.idx)*w.unit)
	var res result
	// The reply lands in the second unit of scratch; the first is left
	// for the oracle's expected bytes.
	buf := scratch[w.unit : 2*w.unit]
	if o.class == classWrite {
		fill(buf, 0, o.idx, o.version)
	}
	r0, w0 := st.Get("mc.reads"), st.Get("mc.writes")
	t0 := time.Now()
	switch {
	case o.class == classRead && w.kv:
		var n int
		n, res.err = b.tree.Get(uint64(o.idx), buf)
		buf = buf[:n]
	case o.class == classRead && w.fastReads() &&
		b.sys.SnapshotRead(b.reader, b.proc.UID, b.proc.GID, b.id.object, b.id.pass, uint64(o.idx)*uint64(w.unit), buf, &b.delta):
	case o.class == classRead:
		if _, res.err = b.sys.OpenFile(b.proc, b.id.object, fs.ReadAccess, b.id.pass); res.err == nil {
			res.err = b.proc.Read(va, buf)
		}
	case w.kv:
		res.err = b.tree.Put(uint64(o.idx), buf)
	default:
		if _, res.err = b.sys.OpenFile(b.proc, b.id.object, fs.WriteAccess, b.id.pass); res.err == nil {
			if res.err = b.proc.Write(va, buf); res.err == nil {
				res.err = b.proc.Persist(va, uint64(w.unit))
			}
		}
	}
	res.dur = time.Since(t0)
	b.sys.M.MC.ApplyReadDelta(b.sys.M.MaxCoreTime(), &b.delta)
	b.delta.Reset()
	b.lines[o.class][0] += st.Get("mc.reads") - r0
	b.lines[o.class][1] += st.Get("mc.writes") - w0
	b.ops[o.class]++
	switch {
	case res.err != nil:
	case o.class == classRead:
		res.bad = !b.cs.expect(o.idx, buf, scratch)
	default:
		b.cs.acked(o)
	}
	return res
}

// lineTimes returns the host time per line of the bare system's own
// controller when the lines of one unit (unit/64 consecutive lines of a
// uniform unit of the object) are moved together through ReadLine and
// WriteLine, as one op of the workload moves them: the first line of a
// unit pays the counter-block fetches the rest reuse. Run after the replay,
// when every store is persisted: it writes back what it read.
func (b *bareSystem) lineTimes(seed uint64, k int) (readUs, writeUs float64, err error) {
	rng := rand.New(rand.NewPCG(seed, 0x6c696e65))
	mc, w := b.sys.M.MC, b.spec
	group := max(w.unit/config.LineSize, 1)
	perPage := config.PageSize / (group * config.LineSize)
	lines := make([]aesctr.Line, group)
	now := b.sys.M.MaxCoreTime()
	var durs [2][]time.Duration
	// k uniform draws over at least a thousand units rewrite no line often
	// enough to wrap its minor counter.
	for i := 0; i < k; i++ {
		u := rng.IntN(w.units)
		pa, err := b.file.PagePA(u / perPage)
		if err != nil {
			return 0, 0, err
		}
		pa = pa.WithDF() + addr.Phys(u%perPage*group*config.LineSize)
		t0 := time.Now()
		for li := range lines {
			lines[li], now = mc.ReadLine(now, pa+addr.Phys(li*config.LineSize))
		}
		durs[0] = append(durs[0], time.Since(t0))
		t0 = time.Now()
		for li := range lines {
			now = mc.WriteLine(now, pa+addr.Phys(li*config.LineSize), lines[li])
		}
		durs[1] = append(durs[1], time.Since(t0))
		now += 1000
	}
	for i := range durs {
		slices.Sort(durs[i])
	}
	return quantile(durs[0], 0.5) / float64(group), quantile(durs[1], 0.5) / float64(group), nil
}

// bareCtrl is client 0's file as tagged pages on a memctrl.New controller
// with nothing above it (page workloads).
type bareCtrl struct {
	spec *workloadSpec
	c    *memctrl.Controller
	base addr.Phys
	now  config.Cycle
	cs   *clientState
	page aesctr.Page
	// reader and delta: see bareSystem.
	reader *memctrl.Reader
	delta  memctrl.ReadDelta
}

func newBareCtrl(w *workloadSpec) *bareCtrl {
	b := &bareCtrl{spec: w, cs: newClientState(w, 0),
		c:    memctrl.New(config.Default(), fsencrMode, stats.NewSet()),
		base: addr.Phys(kernel.PmemBase).WithDF()}
	b.reader = b.c.NewReader()
	const group, file = 7, 7
	b.now = b.c.InstallKey(0, group, file, aesctr.Key{1, 2, 3})
	pages := (int(w.fileSize()) + config.PageSize - 1) / config.PageSize
	for p := 0; p < pages; p++ {
		pa := b.base + addr.Phys(p*config.PageSize)
		b.now = b.c.TagPage(b.now, pa, group, file)
		w.prefill(b.page[:], 0, p*(config.PageSize/w.unit))
		b.now = b.c.WritePage(b.now, pa, &b.page)
	}
	return b
}

// callPage moves one page through SnapshotReadPage (reads the fast path
// serves), ReadPageInto or WritePage. Page workloads only.
func (b *bareCtrl) callPage(o op, scratch []byte) result {
	pa := b.base + addr.Phys(int(o.idx)*config.PageSize)
	var res result
	if o.class == classWrite {
		fill(b.page[:], 0, o.idx, o.version)
	}
	t0 := time.Now()
	switch {
	case o.class == classRead && b.spec.fastReads() && b.c.SnapshotReadPage(b.reader, pa, &b.page, &b.delta):
	case o.class == classRead:
		b.now = b.c.ReadPageInto(b.now, pa, &b.page)
	default:
		b.now = b.c.WritePage(b.now, pa, &b.page)
	}
	res.dur = time.Since(t0)
	b.c.ApplyReadDelta(b.now, &b.delta)
	b.delta.Reset()
	b.now += 1000
	if o.class == classRead {
		res.bad = !b.cs.expect(o.idx, b.page[:], scratch)
	} else {
		b.cs.acked(o)
	}
	return res
}

// medianOf times fn n times and returns the median in microseconds.
func medianOf(n int, fn func(i int)) float64 {
	durs := make([]time.Duration, n)
	for i := range durs {
		t0 := time.Now()
		fn(i)
		durs[i] = time.Since(t0)
	}
	slices.Sort(durs)
	return quantile(durs, 0.5)
}

// microProbes times the leaf layers' public entry points on their own.
func microProbes(w *workloadSpec, seed uint64, k int, out map[string]float64) {
	cfg := config.Default()
	rng := rand.New(rand.NewPCG(seed, 0x6d6963726f))
	pages := max(int(w.fileSize())/config.PageSize, 1)

	eng := aesctr.New(aesctr.Key{9}, cfg.Security.AESLatency)
	var pad, filePad, data aesctr.Page
	var minors [config.LinesPerPage]uint8
	out["aesctr.page_pads_us"] = medianOf(k, func(i int) {
		page := uint64(rng.IntN(pages))
		eng.OTPPageInto(&pad, page, uint64(i), &minors, aesctr.DomainMemory)
		eng.OTPPageInto(&filePad, page, uint64(i), &minors, aesctr.DomainFile)
		aesctr.XORPageInto(&pad, &filePad)
		aesctr.XORPageInto(&data, &pad)
	})

	tree := merkle.New(cfg.Security.MerkleArity, cfg.Security.MerkleLevels)
	var block [config.LineSize]byte
	out["merkle.update_flush_us"] = medianOf(k, func(i int) {
		page := rng.IntN(pages)
		block[0] = byte(i)
		tree.Update(2*page, block[:])
		tree.Update(2*page+1, block[:])
		tree.Flush()
	})

	mem := pcm.New(cfg.PCM, stats.NewSet())
	var starts, dones [config.LinesPerPage]config.Cycle
	now := config.Cycle(0)
	out["pcm.access_page_us"] = medianOf(k, func(i int) {
		pa := addr.Phys(rng.IntN(pages) * config.PageSize)
		if rng.IntN(100) < w.readPct {
			mem.ReadPageInto(pa, &data)
			now = mem.AccessPage(now, pa, false, nil, nil)
			return
		}
		for li := range starts {
			starts[li] = now + config.Cycle(li)
		}
		mem.WritePageFrom(pa, &data)
		now = mem.AccessPage(now, pa, true, &starts, &dones)
	})
}

// codecProbe times json.Marshal and Unmarshal of the request and response
// structs the op stream puts on the wire.
func codecProbe(w *workloadSpec, seed uint64, k int, out map[string]float64) error {
	cs := newClientState(w, 0)
	cs.reseed(seed)
	payload := make([]byte, w.unit)
	var enc, dec []time.Duration
	for i := 0; i < k; i++ {
		o := cs.next()
		fill(payload, 0, o.idx, max(o.version, 1))
		off := uint64(o.idx) * uint64(w.unit)
		var req, resp, reqOut, respOut any
		switch {
		case o.class == classRead && w.kv:
			req, resp = fsproto.KVGetRequest{Store: "obj0", Key: uint64(o.idx)}, fsproto.KVGetResponse{Value: payload}
			reqOut, respOut = new(fsproto.KVGetRequest), new(fsproto.KVGetResponse)
		case o.class == classRead:
			req, resp = fsproto.ReadRequest{Name: "obj0", Offset: off, Length: w.unit}, fsproto.ReadResponse{Data: payload}
			reqOut, respOut = new(fsproto.ReadRequest), new(fsproto.ReadResponse)
		case w.kv:
			req, resp = fsproto.KVPutRequest{Store: "obj0", Key: uint64(o.idx), Value: payload}, fsproto.OKResponse{OK: true}
			reqOut, respOut = new(fsproto.KVPutRequest), new(fsproto.OKResponse)
		default:
			req, resp = fsproto.WriteRequest{Name: "obj0", Offset: off, Data: payload}, fsproto.OKResponse{OK: true}
			reqOut, respOut = new(fsproto.WriteRequest), new(fsproto.OKResponse)
		}
		t0 := time.Now()
		reqJSON, err1 := json.Marshal(req)
		respJSON, err2 := json.Marshal(resp)
		t1 := time.Now()
		err3 := json.Unmarshal(reqJSON, reqOut)
		err4 := json.Unmarshal(respJSON, respOut)
		t2 := time.Now()
		for _, err := range []error{err1, err2, err3, err4} {
			if err != nil {
				return fmt.Errorf("codec probe: %w", err)
			}
		}
		enc, dec = append(enc, t1.Sub(t0)), append(dec, t2.Sub(t1))
	}
	slices.Sort(enc)
	slices.Sort(dec)
	out["fsproto.encode_us"], out["fsproto.decode_us"] = quantile(enc, 0.5), quantile(dec, 0.5)
	return nil
}
