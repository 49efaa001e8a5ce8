package machine

import (
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/memctrl"
)

func TestPageNCRoundtrip(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	base := addr.Phys(0x40000)
	var page aesctr.Page
	for i := range page {
		page[i] = byte(i * 11)
	}
	co.WritePageNT(base, &page)
	var got aesctr.Page
	co.ReadPageNC(base, &got)
	if got != page {
		t.Fatal("page NC roundtrip failed")
	}
	// The page path and the line path see the same bytes.
	line := make([]byte, config.LineSize)
	co.Read(base+5*config.LineSize, line)
	for i, b := range line {
		if b != page[5*config.LineSize+i] {
			t.Fatalf("cached line view disagrees at byte %d", i)
		}
	}
	if m.Stats().Get("machine.nt_page_writes") != 1 {
		t.Fatal("nt_page_writes not counted")
	}
}

// TestPageNCCoherence pins the degrade-to-coherent path: a line dirtied
// through the cache hierarchy must be visible to a later page NC read, and
// a page NT store must update cached copies in place.
func TestPageNCCoherence(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	base := addr.Phys(0x80000)
	var page aesctr.Page
	co.WritePageNT(base, &page)

	// Dirty one line coherently; do not flush.
	patch := []byte("dirty-in-cache")
	co.Write(base+3*config.LineSize, patch)

	var got aesctr.Page
	co.ReadPageNC(base, &got)
	if string(got[3*config.LineSize:3*config.LineSize+len(patch)]) != string(patch) {
		t.Fatal("page NC read missed a dirty cached line")
	}

	// NT page store overwrites the cached copy too.
	for i := range page {
		page[i] = 0xEE
	}
	co.WritePageNT(base, &page)
	line := make([]byte, config.LineSize)
	co.Read(base+3*config.LineSize, line)
	for _, b := range line {
		if b != 0xEE {
			t.Fatal("cached copy not updated by WritePageNT")
		}
	}
}

// TestPageNTFenceCoverage ensures Fence waits for a page NT store's accept
// time.
func TestPageNTFenceCoverage(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	var page aesctr.Page
	co.WritePageNT(addr.Phys(0xC0000), &page)
	if co.pendingPersist == 0 {
		t.Fatal("WritePageNT did not arm pendingPersist")
	}
	before := co.Now
	co.Fence()
	if co.Now < before {
		t.Fatal("Fence went backwards")
	}
}
