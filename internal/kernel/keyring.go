// Package kernel models the co-designed operating system of the paper: DAX
// memory-mapping with DF-bit page-table entries, the MMIO protocol to the
// memory controller (key install/remove, FECB tagging during page faults),
// the keyring-based key hierarchy, Unix permission enforcement, the
// conventional page-cache file path, and the eCryptfs-style software
// encryption baseline.
package kernel

import (
	"crypto/sha256"

	"fsencr/internal/aesctr"
)

// Keyring models the Linux keyring mechanism the paper's key management
// builds on (§III-E): a user's session holds a master key derived from the
// login passphrase; per-file keys are derived from the owner's passphrase
// and the file's salt, eCryptfs-style (FEK wrapped by FEKEK).
type Keyring struct {
	sessions map[uint32][32]byte // uid -> master key material
	// fek memoizes passphrase+salt -> FEK derivations. A service opening
	// files on every request re-derives the same handful of keys
	// thousands of times; the SHA-256 derivation was the open path's last
	// per-request allocation. Unsynchronized, like the rest of the
	// keyring: a Keyring belongs to one kernel.System, driven by one
	// goroutine.
	fek map[fekCacheKey]aesctr.Key
}

type fekCacheKey struct {
	pass string
	salt [8]byte
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{
		sessions: make(map[uint32][32]byte),
		fek:      make(map[fekCacheKey]aesctr.Key),
	}
}

// FileKey returns the File Encryption Key for (passphrase, salt),
// memoizing the derivation. Derived keys are deterministic, so caching
// never changes which key a passphrase produces — a wrong passphrase still
// derives (and caches) a key VerifyKey rejects.
func (k *Keyring) FileKey(passphrase string, salt [8]byte) aesctr.Key {
	ck := fekCacheKey{pass: passphrase, salt: salt}
	if key, ok := k.fek[ck]; ok {
		return key
	}
	key := DeriveFileKey(passphrase, salt)
	k.fek[ck] = key
	return key
}

// Login derives and installs the user's session master key.
func (k *Keyring) Login(uid uint32, passphrase string) {
	k.sessions[uid] = sha256.Sum256([]byte("fekek:" + passphrase))
}

// Logout discards the session key.
func (k *Keyring) Logout(uid uint32) { delete(k.sessions, uid) }

// Verify reports whether uid already holds a session master key
// (registered) and, if so, whether passphrase derives that same key (ok).
// A service authenticating returning users checks ok before granting a
// session; a false ok with registered true is an authentication failure.
func (k *Keyring) Verify(uid uint32, passphrase string) (registered, ok bool) {
	stored, registered := k.sessions[uid]
	if !registered {
		return false, false
	}
	return true, stored == sha256.Sum256([]byte("fekek:"+passphrase))
}

// DeriveFileKey computes the File Encryption Key for a file from a
// passphrase and the file's salt. A wrong passphrase yields a key that the
// memory controller's VerifyKey will reject.
func DeriveFileKey(passphrase string, salt [8]byte) aesctr.Key {
	h := sha256.New()
	h.Write([]byte("fek:"))
	h.Write([]byte(passphrase))
	h.Write(salt[:])
	var sum [32]byte
	h.Sum(sum[:0])
	var key aesctr.Key
	copy(key[:], sum[:])
	return key
}
