package memtrace

import (
	"bytes"
	"errors"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/core"
	"fsencr/internal/kernel"
	"fsencr/internal/machine"
	"fsencr/internal/memctrl"
	"fsencr/internal/workloads"
)

func recordWorkload(t *testing.T, name string, ops int) []Event {
	t.Helper()
	w, err := workloads.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	sys := kernel.Boot(config.Default(), core.SchemeFsEncr.MCMode(), kernel.ModeDAX)
	env := workloads.NewEnv(sys, w.Threads, ops, true, 3)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	sys.M.SetTracer(rec) // record only the measured phase
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	sys.M.SetTracer(nil)
	return rec.Events
}

func TestRecorderCaptures(t *testing.T) {
	events := recordWorkload(t, "hashmap", 50)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	s := Summarize(events)
	if s.Reads == 0 || s.Writes == 0 || s.Flushes == 0 || s.Fences == 0 {
		t.Fatalf("missing event kinds: %+v", s)
	}
	if s.Cores != 2 {
		t.Fatalf("hashmap runs 2 threads, trace saw %d cores", s.Cores)
	}
	if s.DFAccesses == 0 {
		t.Fatal("encrypted workload produced no DF-tagged accesses")
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	events := recordWorkload(t, "dax3", 20)
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("roundtrip lost events: %d vs %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got[i], events[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("garbage accepted: %v", err)
	}
	var buf bytes.Buffer
	Write(&buf, []Event{{Core: 0, Kind: KindRead, PA: 0x1000, Len: 8}})
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-4])); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated trace accepted: %v", err)
	}
}

func TestReplayDeterministic(t *testing.T) {
	events := recordWorkload(t, "hashmap", 60)
	run := func() (config.Cycle, uint64) {
		m := machine.New(config.Default(), core.SchemeFsEncr.MCMode())
		Prepare(m, events)
		cycles, err := Replay(m, events)
		if err != nil {
			t.Fatal(err)
		}
		return cycles, m.MC.PCM.Writes()
	}
	c1, w1 := run()
	c2, w2 := run()
	if c1 != c2 || w1 != w2 {
		t.Fatalf("replay not deterministic: (%d,%d) vs (%d,%d)", c1, w1, c2, w2)
	}
	if c1 == 0 {
		t.Fatal("replay took zero cycles")
	}
}

func TestReplayAcrossSchemes(t *testing.T) {
	events := recordWorkload(t, "hashmap", 100)
	replayUnder := func(mode memctrl.Mode) config.Cycle {
		m := machine.New(config.Default(), mode)
		Prepare(m, events)
		cycles, err := Replay(m, events)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	plain := replayUnder(memctrl.Mode{})
	baseline := replayUnder(memctrl.Mode{MemEncryption: true})
	fsencr := replayUnder(memctrl.Mode{MemEncryption: true, FileEncryption: true})
	if !(plain <= baseline && baseline <= fsencr) {
		t.Fatalf("replay scheme ordering violated: %d / %d / %d", plain, baseline, fsencr)
	}
}

func TestReplayValidatesCores(t *testing.T) {
	m := machine.New(config.Default(), memctrl.Mode{})
	_, err := Replay(m, []Event{{Core: 200, Kind: KindRead, PA: 0, Len: 1}})
	if err == nil {
		t.Fatal("out-of-range core accepted")
	}
	_, err = Replay(m, []Event{{Core: 0, Kind: 'X', PA: 0, Len: 1}})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestSummarizeCounts(t *testing.T) {
	events := []Event{
		{Core: 0, Kind: KindRead, PA: addr.Phys(0x1000), Len: 64},
		{Core: 1, Kind: KindWrite, PA: addr.Phys(0x2000).WithDF(), Len: 8},
		{Core: 0, Kind: KindFlush, PA: addr.Phys(0x2000).WithDF(), Len: 64},
		{Core: 0, Kind: KindFence},
	}
	s := Summarize(events)
	if s.Reads != 1 || s.Writes != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.BytesRead != 64 || s.BytesWrite != 8 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.DFAccesses != 2 || s.UniquePages != 2 || s.Cores != 2 {
		t.Fatalf("derived: %+v", s)
	}
}
