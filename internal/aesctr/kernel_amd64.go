package aesctr

// hasAESNI is resolved once at init: what the CPU reports, nothing else,
// selects between the assembly kernel and the reference loop.
var hasAESNI = cpuidAES()

// expandKey fills e.rk, the round keys the assembly kernel reads; they stay
// zero, and unread, on a CPU without AES-NI.
func (e *Engine) expandKey(key *Key) {
	if hasAESNI {
		expandKeyAESNI(&e.rk, key)
	}
}

// encryptBlocks AES-encrypts the len(buf)/16 independent blocks of buf in
// place — the package's one kernel, byte-identical to encryptBlocksRef.
func (e *Engine) encryptBlocks(buf []byte) {
	if !hasAESNI {
		e.encryptBlocksRef(buf)
		return
	}
	encryptBlocksAESNI(&e.rk, buf)
}

// Implemented in kernel_amd64.s.

func cpuidAES() bool

//go:noescape
func expandKeyAESNI(rk *[176]byte, key *Key)

//go:noescape
func encryptBlocksAESNI(rk *[176]byte, buf []byte)
