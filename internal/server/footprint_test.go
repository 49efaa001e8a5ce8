package server_test

import (
	"runtime"
	"testing"

	"fsencr/internal/core"
	"fsencr/internal/server"
)

// TestBootFootprint pins what an empty service holds: a shard's memory
// follows its data, not its configured region or its idle cores, so
// booting two FsEncr/DAX shards grows the live heap by at most 4 MiB.
func TestBootFootprint(t *testing.T) {
	const limit = 4 // MiB
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	svc := server.New(server.Options{Shards: 2, MCMode: core.SchemeFsEncr.MCMode(), Access: core.SchemeFsEncr.AccessMode()})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(svc)
	svc.Close()
	grew := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("booting two shards grew the heap by %.2f MiB", grew)
	if grew > limit {
		t.Fatalf("booting two shards grew the heap by %.2f MiB, want at most %d", grew, limit)
	}
}
