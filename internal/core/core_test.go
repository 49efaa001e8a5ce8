package core

import (
	"strings"
	"testing"

	"fsencr/internal/kernel"
)

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s       Scheme
		str     string
		mem     bool
		file    bool
		access  kernel.AccessMode
		filesOn bool
	}{
		{SchemePlain, "ext4-dax", false, false, kernel.ModeDAX, false},
		{SchemeBaseline, "baseline", true, false, kernel.ModeDAX, false},
		{SchemeFsEncr, "fsencr", true, true, kernel.ModeDAX, true},
		{SchemeSWEncr, "swencr", false, false, kernel.ModeSWEncrypt, true},
	}
	for _, c := range cases {
		if c.s.String() != c.str {
			t.Fatalf("%v String = %q", c.s, c.s.String())
		}
		m := c.s.MCMode()
		if m.MemEncryption != c.mem || m.FileEncryption != c.file {
			t.Fatalf("%v MCMode = %+v", c.s, m)
		}
		if c.s.AccessMode() != c.access {
			t.Fatalf("%v AccessMode = %v", c.s, c.s.AccessMode())
		}
		if c.s.FilesEncrypted() != c.filesOn {
			t.Fatalf("%v FilesEncrypted = %v", c.s, c.s.FilesEncrypted())
		}
	}
}

func TestParseScheme(t *testing.T) {
	cases := []struct {
		name string
		want Scheme
	}{
		{"ext4-dax", SchemePlain},
		{"plain", SchemePlain},
		{"baseline", SchemeBaseline},
		{"fsencr", SchemeFsEncr},
		{"swencr", SchemeSWEncr},
		{"ecryptfs", SchemeSWEncr},
	}
	for _, c := range cases {
		if got, err := ParseScheme(c.name); err != nil || got != c.want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, s := range []Scheme{SchemePlain, SchemeBaseline, SchemeFsEncr, SchemeSWEncr} {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Fatalf("ParseScheme(%v.String()) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScheme("rot13"); err == nil || !strings.Contains(err.Error(), `"rot13"`) {
		t.Fatalf("ParseScheme(rot13) error = %v, want one naming it", err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Request{Workload: "nope", Scheme: SchemePlain, Ops: 10}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Request{Workload: "dax1", Scheme: SchemePlain}); err == nil {
		t.Fatal("zero ops accepted")
	}
}

func TestRunProducesMeasurements(t *testing.T) {
	r, err := Run(Request{Workload: "hashmap", Scheme: SchemeFsEncr, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("zero cycles measured")
	}
	if r.NVMWrites == 0 {
		t.Fatal("write-heavy workload recorded no NVM writes")
	}
	if r.Workload != "hashmap" || r.Scheme != SchemeFsEncr || r.Ops != 100 {
		t.Fatalf("result identity wrong: %+v", r)
	}
	if r.CyclesPerOp() <= 0 {
		t.Fatal("CyclesPerOp not positive")
	}
}

func TestRunDeterminism(t *testing.T) {
	req := Request{Workload: "ycsb", Scheme: SchemeFsEncr, Ops: 80, Seed: 5}
	a, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same request diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesAccessStream(t *testing.T) {
	a, _ := Run(Request{Workload: "fillrandom-s", Scheme: SchemePlain, Ops: 80, Seed: 1})
	b, _ := Run(Request{Workload: "fillrandom-s", Scheme: SchemePlain, Ops: 80, Seed: 2})
	if a.Cycles == b.Cycles && a.NVMWrites == b.NVMWrites {
		t.Log("warning: different seeds produced identical measurements (possible but unlikely)")
	}
}

func TestRatio(t *testing.T) {
	mk := func(c uint64) Result { return Result{Cycles: c} }
	if r := Ratio(mk(100), mk(150), MetricCycles); r != 1.5 {
		t.Fatalf("ratio = %v", r)
	}
	if r := Ratio(mk(0), mk(0), MetricCycles); r != 1 {
		t.Fatalf("0/0 ratio = %v", r)
	}
	if r := Ratio(mk(0), mk(5), MetricCycles); r != 0 {
		t.Fatalf("x/0 ratio = %v", r)
	}
}

func TestSchemeOrderingOnWriteHeavyWorkload(t *testing.T) {
	// More protection must never make the system faster; software
	// encryption must be the slowest by a wide margin.
	ops := 150
	var cycles []uint64
	for _, s := range []Scheme{SchemePlain, SchemeBaseline, SchemeFsEncr, SchemeSWEncr} {
		r, err := Run(Request{Workload: "ctree", Scheme: s, Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, r.Cycles)
	}
	if !(cycles[0] <= cycles[1] && cycles[1] <= cycles[2]) {
		t.Fatalf("protection ordering violated: %v", cycles)
	}
	if cycles[3] < cycles[2]*2 {
		t.Fatalf("software encryption (%d) not clearly slower than FsEncr (%d)", cycles[3], cycles[2])
	}
}

func TestFsEncrAddsMetadataTraffic(t *testing.T) {
	b, f, err := RunPair("hashmap", SchemeBaseline, SchemeFsEncr, 150, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.NVMWrites <= b.NVMWrites {
		t.Fatal("FsEncr did not add metadata write traffic")
	}
	if f.MetaWritebacks+f.MetaReads <= b.MetaWritebacks+b.MetaReads {
		t.Fatal("FsEncr did not add metadata accesses")
	}
}

func TestTableII(t *testing.T) {
	out := TableII().String()
	for _, want := range []string{"dax1", "fillrandom-s", "ycsb", "hashmap", "ctree", "readseq-l"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadGroupsMatchRegistry(t *testing.T) {
	if len(PMEMKVWorkloads) != 10 {
		t.Fatalf("PMEMKV group has %d entries", len(PMEMKVWorkloads))
	}
	if len(WhisperWorkloads) != 3 || len(SyntheticWorkloads) != 4 {
		t.Fatal("workload group sizes wrong")
	}
}
