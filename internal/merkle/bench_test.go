package merkle

import "testing"

// Write-back hot-path benchmarks. BenchmarkMerkleUpdate is the cost the
// memory controller pays on every NVM write (leaf hash + dirty-set insert);
// BenchmarkMerkleFlush is the deferred propagation bill for one page's
// worth of line writes (64 leaves under shared parents), paid once per
// external observation instead of once per write. Run with
// `go test -bench 'MerkleUpdate|MerkleFlush' ./internal/merkle`.

var benchContent = make([]byte, 64)

func BenchmarkMerkleUpdate(b *testing.B) {
	tr := New(8, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchContent[0] = byte(i)
		tr.Update(i&4095, benchContent)
	}
}

func BenchmarkMerkleFlush(b *testing.B) {
	tr := New(8, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for leaf := 0; leaf < 64; leaf++ {
			benchContent[0] = byte(leaf ^ i)
			tr.Update(leaf, benchContent)
		}
		tr.Flush()
	}
}

// BenchmarkMerkleVerifyAfterUpdate is a prefill's metadata-miss pattern: a
// write updates leaf i, then a first touch fetches and verifies leaf i+8.
func BenchmarkMerkleVerifyAfterUpdate(b *testing.B) {
	tr := New(8, 9)
	block := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf := i & 4095
		tr.Update(leaf, block)
		if !tr.Verify(leaf+8, block) {
			b.Fatal("verify failed")
		}
	}
}
