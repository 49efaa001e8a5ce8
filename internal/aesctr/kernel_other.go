//go:build !amd64

package aesctr

// No assembly kernel for this target: e.rk stays zero and the kernel is the
// reference loop.

func (e *Engine) expandKey(*Key) {}

// encryptBlocks AES-encrypts the len(buf)/16 independent blocks of buf in
// place.
func (e *Engine) encryptBlocks(buf []byte) { e.encryptBlocksRef(buf) }
