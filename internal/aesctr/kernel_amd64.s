// AES-128 on the AES-NI unit: the key schedule (AESKEYGENASSIST, so no S-box
// table and no key-dependent branch or load) and the multi-block encryption
// kernel behind Engine.encryptBlocks. No load or store here demands alignment
// of the round keys or of the caller's buffer.

#include "textflag.h"

// func cpuidAES() bool
// CPUID leaf 1, ECX bit 25: the AES-NI instructions (SSE2, which the rest of
// this file uses, is part of the amd64 baseline).
TEXT ·cpuidAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND derives the next round key from the previous one in X0 (FIPS-197
// §5.2 for Nk=4): X1 = SubWord(RotWord(w3)) ^ rcon broadcast to all four
// lanes, X0 ^= X0<<32 ^ X0<<64 ^ X0<<96 is the running XOR of its words.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xff, X1, X1; \
	MOVOU X0, X2; \
	PSLLDQ $4, X2; \
	PXOR X2, X0; \
	PSLLDQ $4, X2; \
	PXOR X2, X0; \
	PSLLDQ $4, X2; \
	PXOR X2, X0; \
	PXOR X1, X0; \
	MOVOU X0, off(AX)

// func expandKeyAESNI(rk *[176]byte, key *Key)
TEXT ·expandKeyAESNI(SB), NOSPLIT, $0-16
	MOVQ rk+0(FP), AX
	MOVQ key+8(FP), BX
	MOVOU (BX), X0
	MOVOU X0, (AX)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// One AES round over eight, four or one block(s), its round key loaded into
// the scratch register X8. The blocks are independent, so the AESENCs of a
// round pipeline back to back instead of waiting out each other's latency.
#define ROUND8(OP, off) \
	MOVOU off(AX), X8; \
	OP X8, X0; OP X8, X1; OP X8, X2; OP X8, X3; \
	OP X8, X4; OP X8, X5; OP X8, X6; OP X8, X7

#define ROUND4(OP, off) \
	MOVOU off(AX), X8; \
	OP X8, X0; OP X8, X1; OP X8, X2; OP X8, X3

#define ROUND1(OP, off) \
	MOVOU off(AX), X8; \
	OP X8, X0

#define ROUNDS(R) \
	R(PXOR, 0); \
	R(AESENC, 16); R(AESENC, 32); R(AESENC, 48); \
	R(AESENC, 64); R(AESENC, 80); R(AESENC, 96); \
	R(AESENC, 112); R(AESENC, 128); R(AESENC, 144); \
	R(AESENCLAST, 160)

#define LOAD(off, X) \
	MOVQ off(DI), X; \
	MOVHPS off+8(DI), X

// func encryptBlocksAESNI(rk *[176]byte, buf []byte)
// Encrypts the len(buf)/16 whole blocks of buf in place: eight in flight
// while eight remain, then four, then one at a time. A block is loaded as two
// 8-byte halves (MOVQ, MOVHPS) because that is how otpLines has just stored
// it: a 16-byte load spanning two stores still in the store buffer cannot be
// forwarded and stalls until both retire, which a single line's pad would pay
// in full (OTPInto 36 -> 32 ns); the extra loads are free beside the AESENCs.
TEXT ·encryptBlocksAESNI(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ buf_base+8(FP), DI
	MOVQ buf_len+16(FP), CX
	SHRQ $4, CX

loop8:
	CMPQ CX, $8
	JB tail4
	LOAD(0, X0)
	LOAD(16, X1)
	LOAD(32, X2)
	LOAD(48, X3)
	LOAD(64, X4)
	LOAD(80, X5)
	LOAD(96, X6)
	LOAD(112, X7)
	ROUNDS(ROUND8)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ $128, DI
	SUBQ $8, CX
	JMP loop8

tail4:
	CMPQ CX, $4
	JB tail1
	LOAD(0, X0)
	LOAD(16, X1)
	LOAD(32, X2)
	LOAD(48, X3)
	ROUNDS(ROUND4)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ $64, DI
	SUBQ $4, CX

tail1:
	TESTQ CX, CX
	JZ done
	LOAD(0, X0)
	ROUNDS(ROUND1)
	MOVOU X0, (DI)
	ADDQ $16, DI
	DECQ CX
	JMP tail1

done:
	RET
