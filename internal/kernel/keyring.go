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
// login passphrase. Per-file keys are not kept here: every open derives its
// file's key from the passphrase it was given and the file's salt,
// eCryptfs-style (FEK wrapped by FEKEK), with DeriveFileKey. Nothing a
// caller tries, a wrong passphrase included, is remembered.
type Keyring struct {
	sessions map[uint32][32]byte // uid -> master key material
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{sessions: make(map[uint32][32]byte)}
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
	var buf [128]byte // passphrases that fit hash with no allocation
	sum := sha256.Sum256(append(append(append(buf[:0], "fek:"...), passphrase...), salt[:]...))
	return aesctr.Key(sum[:len(aesctr.Key{})])
}
