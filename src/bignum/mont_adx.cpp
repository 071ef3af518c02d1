// Fixed-width MULX/ADCX/ADOX Montgomery kernels for k = 4, 8 and 16 limbs.
//
// GCC does not emit ADCX/ADOX from intrinsics, so the kernels are assembly,
// kept in this file as one top-level asm block of GNU as macros (no
// assembler language in the build). Each kernel is product-then-reduce
// with the running sum kept in an 8-limb register window (4 limbs at
// k = 4):
//   * a row adds rdx * v[0..7] into the window with two flag chains (CF
//     for low halves, OF for folding the window into high halves); the
//     bottom limb leaves final and the window shifts down one register, so
//     one pass of 8 rows touches memory once per limb instead of once per
//     row;
//   * the multiply runs such rows over 8-limb blocks of a against b; the
//     square runs them over the cross products a[i] a[j], i < j (diagonal
//     chunks as unrolled triangles whose window shift is a register
//     renaming), then doubles and adds the a[i]^2 diagonal in one pass;
//   * the reduction computes m = bottom * n0inv for 8 rows at a time with
//     the window in registers, saves the 8 multipliers and replays them
//     against the rest of n, then subtracts n once, branch-free.
// Every round derives the same m as the portable kernels and the result is
// the canonical residue, so the output is bit-identical to
// mont_mul_portable / mont_sqr_portable.
#include "bignum/mont_kernels.h"

#include <string>

#include "common/error.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ICE_BN_HAVE_ADX_KERNELS 1
#endif

#ifdef ICE_BN_HAVE_ADX_KERNELS

asm(R"ICEASM(
	.pushsection .text

# Frame of every kernel (offsets from %rsp after the prologue): the
# 2k+1-limb product t at 0, then the 8 saved reduction multipliers m, a
# carry slot, out, n0inv and n.

# Multiply-accumulate chain over one row: the low half of rdx * v[q] is
# added into \lo on the CF chain; the high half lands in \hi, and the next
# window limb \nx is folded into it on the OF chain. With \nx blank the row
# ends: both chains close into \hi (%rbp is zero) and CF = OF = 0 again.
.macro ICE_CHAIN vd, vb, lo, hi, nx, rest:vararg
	mulx	\vd(\vb), %rax, \hi
	adcx	%rax, \lo
	.ifb \nx
	adox	%rbp, \hi
	adcx	%rbp, \hi
	.else
	adox	\nx, \hi
	ICE_CHAIN \vd+8, \vb, \hi, \nx, \rest
	.endif
.endm

# One row: window \w0..\wn += rdx * v[0..n]. The window's bottom limb is
# final and leaves in %rbx; the others shift down one register and the new
# top limb enters in the last one. The xor clears CF and OF without reading
# them, so a row does not wait for the previous row's flag chains.
.macro ICE_ROW vd, vb, w0, ws:vararg
	xor	%ebp, %ebp
	mov	\w0, %rbx
	ICE_CHAIN \vd, \vb, %rbx, \w0, \ws
.endm

# \cnt rows over the multipliers at \xd(\xb) + 8 i, adding at v = \vd(\vb)
# and storing the bottom limbs at \sd(%rsp) + 8 i, with \ix counting up
# from -\cnt. inc leaves CF alone, so the last row's CF = 0 survives the
# loop for an adc chain that follows it.
.macro ICE_ROWS cnt, xd, xb, ix, vd, vb, sd, w:vararg
	mov	$-\cnt, \ix
1:
	mov	\xd+8*\cnt(\xb,\ix,8), %rdx
	ICE_ROW	\vd, \vb, \w
	mov	%rbx, \sd+8*\cnt(%rsp,\ix,8)
	inc	\ix
	jnz	1b
.endm

# \cnt reduction rounds: m = bottom * n0inv (saved at \m(%rsp) + 8 i
# unless \m is blank), then window += m * n[0..cnt-1]. The bottom limb
# becomes zero, so only its carry (bottom != 0) matters: blsi sets CF to
# exactly that and clears OF, which also starts both chains afresh.
.macro ICE_HEAD cnt, n0, m, ix, w0, w1, ws:vararg
	mov	$-\cnt, \ix
1:
	mov	\w0, %rdx
	imul	\n0(%rsp), %rdx
	.ifnb \m
	mov	%rdx, \m+8*\cnt(%rsp,\ix,8)
	.endif
	blsi	\w0, %rbx
	mulx	(%rcx), %rax, \w0
	adox	\w1, \w0
	ICE_CHAIN 8, %rcx, \w0, \w1, \ws
	inc	\ix
	jnz	1b
.endm

# One cross-product row of a diagonal chunk: stores the bottom limb \w0,
# then adds rdx * v[r+1..] from window limb \wr up. The shift is a register
# renaming (\w0 takes the row's first high half), so callers spell out each
# row's window. A blank \wr is the chunk's last row, which has no products.
.macro ICE_TRI vd, vb, sd, w0, wr, ws:vararg
	mov	\w0, \sd(%rsp)
	.ifb \wr
	xor	\w0, \w0
	.else
	xor	%ebp, %ebp
	ICE_CHAIN \vd, \vb, \wr, \w0, \ws
	.endif
.endm

# The cross products a[i] a[j], i < j, of the 8-limb chunk at \ad(%rsi),
# added at t + \sd. Starts from window r8..r15 and leaves it renamed as
# r10, r13, r9, r14, r11, r15, r8, r12.
.macro ICE_TRI8 ad, sd
	mov	\ad(%rsi), %rdx
	ICE_TRI	\ad+8, %rsi, \sd, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	\ad+8(%rsi), %rdx
	ICE_TRI	\ad+16, %rsi, \sd+8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	\ad+16(%rsi), %rdx
	ICE_TRI	\ad+24, %rsi, \sd+16, %r8, %r11, %r12, %r13, %r14, %r15
	mov	\ad+24(%rsi), %rdx
	ICE_TRI	\ad+32, %rsi, \sd+24, %r10, %r12, %r13, %r14, %r15
	mov	\ad+32(%rsi), %rdx
	ICE_TRI	\ad+40, %rsi, \sd+32, %r9, %r13, %r14, %r15
	mov	\ad+40(%rsi), %rdx
	ICE_TRI	\ad+48, %rsi, \sd+40, %r11, %r14, %r15
	mov	\ad+48(%rsi), %rdx
	ICE_TRI	\ad+56, %rsi, \sd+48, %r8, %r15
	ICE_TRI	0, %rsi, \sd+56, %r12
.endm

# Same for a 4-limb chunk: window r8..r11 ends as r9, r11, r8, r10.
.macro ICE_TRI4 ad, sd
	mov	\ad(%rsi), %rdx
	ICE_TRI	\ad+8, %rsi, \sd, %r8, %r9, %r10, %r11
	mov	\ad+8(%rsi), %rdx
	ICE_TRI	\ad+16, %rsi, \sd+8, %r9, %r10, %r11
	mov	\ad+16(%rsi), %rdx
	ICE_TRI	\ad+24, %rsi, \sd+16, %r8, %r11
	ICE_TRI	0, %rsi, \sd+24, %r10
.endm

# t[0..2k-1] = 2 t + sum a[i]^2 2^(128 i). The doubling is a mulx by 2,
# whose high half is the bit shifted into the next limb (lea adds it in
# without touching the flags), so only the diagonal squares ride a carry
# chain.
.macro ICE_DIAG k
	xor	%ebp, %ebp
	xor	%r10d, %r10d
	.set	.Lice_i, 0
	.rept	\k
	mov	$2, %edx
	mulx	16*.Lice_i(%rsp), %r8, %r11
	mulx	16*.Lice_i+8(%rsp), %r9, %r12
	lea	(%r8,%r10), %r8
	lea	(%r9,%r11), %r9
	mov	%r12, %r10
	mov	8*.Lice_i(%rsi), %rdx
	mulx	%rdx, %rax, %rbx
	adcx	%rax, %r8
	adcx	%rbx, %r9
	mov	%r8, 16*.Lice_i(%rsp)
	mov	%r9, 16*.Lice_i+8(%rsp)
	.set	.Lice_i, .Lice_i+1
	.endr
.endm

.macro ICE_LOADW d, w, ws:vararg
	mov	\d(%rsp), \w
	.ifnb \ws
	ICE_LOADW \d+8, \ws
	.endif
.endm

.macro ICE_STOREW d, w, ws:vararg
	mov	\w, \d(%rsp)
	.ifnb \ws
	ICE_STOREW \d+8, \ws
	.endif
.endm

# window += t limbs at \d, carry in from CF.
.macro ICE_ADCW d, w, ws:vararg
	adc	\d(%rsp), \w
	.ifnb \ws
	ICE_ADCW \d+8, \ws
	.endif
.endm

.macro ICE_ZEROW w, ws:vararg
	xor	\w, \w
	.ifnb \ws
	ICE_ZEROW \ws
	.endif
.endm

# out[] = window - n[] on the borrow chain (CF in), through %rdx.
.macro ICE_SBBW d, w, ws:vararg
	mov	\w, %rdx
	sbb	\d(%rcx), %rdx
	mov	%rdx, \d(%rdi)
	.ifnb \ws
	ICE_SBBW \d+8, \ws
	.endif
.endm

# out[] = CF ? window : out[].
.macro ICE_SELW d, w, ws:vararg
	cmovnc	\d(%rdi), \w
	mov	\w, \d(%rdi)
	.ifnb \ws
	ICE_SELW \d+8, \ws
	.endif
.endm

# Reduction of a one-window t (k = w limbs): w rounds, then t's high half
# joins, then out = r - n unless that borrows past r's carry limb.
.macro ICE_REDC1 w, n0, out, r0, rs:vararg
	ICE_LOADW 0, \r0, \rs
	ICE_HEAD \w, \n0, , %rsi, \r0, \rs
	ICE_ADCW 8*\w, \r0, \rs
	mov	$0, %eax
	adc	%rbp, %rax
	mov	\out(%rsp), %rdi
	xor	%ebp, %ebp
	ICE_SBBW 0, \r0, \rs
	sbb	%rbp, %rax
	ICE_SELW 0, \r0, \rs
.endm

# Reduction of a 32-limb t (k = 16) in two blocks of 8 rounds. Each block
# computes its 8 multipliers against n[0..7] with the window in registers,
# adds t's next 8 limbs, then replays the saved multipliers against
# n[8..15]. Frame: m 264, carry 328, out 336, n0inv 344.
.macro ICE_REDC2
	ICE_LOADW 0, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_HEAD 8, 344, 264, %rsi, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_ADCW 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sbb	%rax, %rax
	mov	%rax, 328(%rsp)
	ICE_ROWS 8, 264, %rsp, %rsi, 64, %rcx, 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	328(%rsp), %rax
	neg	%rax
	ICE_ADCW 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_STOREW 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	.irp d,192,200,208,216,224,232,240,248,256
	adc	%rbp, \d(%rsp)
	.endr
	ICE_LOADW 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_HEAD 8, 344, 264, %rsi, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_ADCW 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sbb	%rax, %rax
	mov	%rax, 328(%rsp)
	ICE_ROWS 8, 264, %rsp, %rsi, 64, %rcx, 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	328(%rsp), %rax
	neg	%rax
	ICE_ADCW 192, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	256(%rsp), %rax
	adc	%rbp, %rax
	mov	336(%rsp), %rdi
	xor	%ebp, %ebp
	.irp d,0,8,16,24,32,40,48,56
	mov	128+\d(%rsp), %rdx
	sbb	\d(%rcx), %rdx
	mov	%rdx, \d(%rdi)
	.endr
	ICE_SBBW 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sbb	%rbp, %rax
	ICE_SELW 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	.irp d,0,8,16,24,32,40,48,56
	mov	128+\d(%rsp), %rdx
	cmovnc	\d(%rdi), %rdx
	mov	%rdx, \d(%rdi)
	.endr
.endm

.macro ICE_ENTER name, frame
	.globl	\name
	.hidden	\name
	.type	\name, @function
	.p2align 5
\name:
	.cfi_startproc
	push	%rbx
	.cfi_adjust_cfa_offset 8
	.cfi_offset %rbx, -16
	push	%rbp
	.cfi_adjust_cfa_offset 8
	.cfi_offset %rbp, -24
	push	%r12
	.cfi_adjust_cfa_offset 8
	.cfi_offset %r12, -32
	push	%r13
	.cfi_adjust_cfa_offset 8
	.cfi_offset %r13, -40
	push	%r14
	.cfi_adjust_cfa_offset 8
	.cfi_offset %r14, -48
	push	%r15
	.cfi_adjust_cfa_offset 8
	.cfi_offset %r15, -56
	sub	$\frame, %rsp
	.cfi_adjust_cfa_offset \frame
.endm

.macro ICE_LEAVE name, frame
	add	$\frame, %rsp
	.cfi_adjust_cfa_offset -\frame
	pop	%r15
	.cfi_adjust_cfa_offset -8
	pop	%r14
	.cfi_adjust_cfa_offset -8
	pop	%r13
	.cfi_adjust_cfa_offset -8
	pop	%r12
	.cfi_adjust_cfa_offset -8
	pop	%rbp
	.cfi_adjust_cfa_offset -8
	pop	%rbx
	.cfi_adjust_cfa_offset -8
	ret
	.cfi_endproc
	.size	\name, .-\name
.endm

# mul(out, a, b, n, n0inv) and sqr(out, a, n, n0inv) for k = 16.
ICE_ENTER ice_bn_mont_mul16_adx, 360
	mov	%rdi, 336(%rsp)
	mov	%r8, 344(%rsp)
	mov	%rcx, 352(%rsp)
	mov	%rdx, %rdi
	xor	%ebp, %ebp
	mov	%rbp, 256(%rsp)
	ICE_ZEROW %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_ROWS 8, 0, %rsi, %rcx, 0, %rdi, 0, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_ROWS 8, 0, %rsi, %rcx, 64, %rdi, 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_STOREW 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_LOADW 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_ROWS 8, 64, %rsi, %rcx, 0, %rdi, 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_ADCW 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sbb	%rax, %rax
	mov	%rax, 328(%rsp)
	ICE_ROWS 8, 64, %rsi, %rcx, 64, %rdi, 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	328(%rsp), %rax
	neg	%rax
	.irp w,%r8,%r9,%r10,%r11,%r12,%r13,%r14,%r15
	adc	%rbp, \w
	.endr
	ICE_STOREW 192, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	352(%rsp), %rcx
	ICE_REDC2
ICE_LEAVE ice_bn_mont_mul16_adx, 360

ICE_ENTER ice_bn_mont_sqr16_adx, 360
	mov	%rdi, 336(%rsp)
	mov	%rcx, 344(%rsp)
	mov	%rdx, %rcx
	xor	%ebp, %ebp
	mov	%rbp, 256(%rsp)
	ICE_ZEROW %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_TRI8 0, 0
	ICE_ROWS 8, 0, %rsi, %rdi, 64, %rsi, 64, %r10, %r13, %r9, %r14, %r11, %r15, %r8, %r12
	ICE_STOREW 128, %r10, %r13, %r9, %r14, %r11, %r15, %r8, %r12
	ICE_LOADW 128, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_TRI8 64, 128
	ICE_STOREW 192, %r10, %r13, %r9, %r14, %r11, %r15, %r8, %r12
	ICE_DIAG 16
	ICE_REDC2
ICE_LEAVE ice_bn_mont_sqr16_adx, 360

# k = 8: out 208, n0inv 216, n 224.
ICE_ENTER ice_bn_mont_mul8_adx, 232
	mov	%rdi, 208(%rsp)
	mov	%r8, 216(%rsp)
	mov	%rcx, 224(%rsp)
	mov	%rdx, %rdi
	xor	%ebp, %ebp
	ICE_ZEROW %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_ROWS 8, 0, %rsi, %rcx, 0, %rdi, 0, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_STOREW 64, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	mov	224(%rsp), %rcx
	ICE_REDC1 8, 216, 208, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
ICE_LEAVE ice_bn_mont_mul8_adx, 232

ICE_ENTER ice_bn_mont_sqr8_adx, 232
	mov	%rdi, 208(%rsp)
	mov	%rcx, 216(%rsp)
	mov	%rdx, %rcx
	xor	%ebp, %ebp
	ICE_ZEROW %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	ICE_TRI8 0, 0
	ICE_STOREW 64, %r10, %r13, %r9, %r14, %r11, %r15, %r8, %r12
	ICE_DIAG 8
	ICE_REDC1 8, 216, 208, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
ICE_LEAVE ice_bn_mont_sqr8_adx, 232

# k = 4, with a 4-limb window: out 144, n0inv 152, n 160.
ICE_ENTER ice_bn_mont_mul4_adx, 168
	mov	%rdi, 144(%rsp)
	mov	%r8, 152(%rsp)
	mov	%rcx, 160(%rsp)
	mov	%rdx, %rdi
	xor	%ebp, %ebp
	ICE_ZEROW %r8, %r9, %r10, %r11
	ICE_ROWS 4, 0, %rsi, %rcx, 0, %rdi, 0, %r8, %r9, %r10, %r11
	ICE_STOREW 32, %r8, %r9, %r10, %r11
	mov	160(%rsp), %rcx
	ICE_REDC1 4, 152, 144, %r8, %r9, %r10, %r11
ICE_LEAVE ice_bn_mont_mul4_adx, 168

ICE_ENTER ice_bn_mont_sqr4_adx, 168
	mov	%rdi, 144(%rsp)
	mov	%rcx, 152(%rsp)
	mov	%rdx, %rcx
	xor	%ebp, %ebp
	ICE_ZEROW %r8, %r9, %r10, %r11
	ICE_TRI4 0, 0
	ICE_STOREW 32, %r9, %r11, %r8, %r10
	ICE_DIAG 4
	ICE_REDC1 4, 152, 144, %r8, %r9, %r10, %r11
ICE_LEAVE ice_bn_mont_sqr4_adx, 168

	.popsection
)ICEASM");

// mul(out, a, b, n, n0inv) and sqr(out, a, n, n0inv), defined above.
#pragma GCC visibility push(hidden)
extern "C" {
void ice_bn_mont_mul16_adx(std::uint64_t*, const std::uint64_t*,
                           const std::uint64_t*, const std::uint64_t*,
                           std::uint64_t);
void ice_bn_mont_sqr16_adx(std::uint64_t*, const std::uint64_t*,
                           const std::uint64_t*, std::uint64_t);
void ice_bn_mont_mul8_adx(std::uint64_t*, const std::uint64_t*,
                          const std::uint64_t*, const std::uint64_t*,
                          std::uint64_t);
void ice_bn_mont_sqr8_adx(std::uint64_t*, const std::uint64_t*,
                          const std::uint64_t*, std::uint64_t);
void ice_bn_mont_mul4_adx(std::uint64_t*, const std::uint64_t*,
                          const std::uint64_t*, const std::uint64_t*,
                          std::uint64_t);
void ice_bn_mont_sqr4_adx(std::uint64_t*, const std::uint64_t*,
                          const std::uint64_t*, std::uint64_t);
}
#pragma GCC visibility pop

#endif  // ICE_BN_HAVE_ADX_KERNELS

namespace ice::bn::detail {

namespace {

#ifdef ICE_BN_HAVE_ADX_KERNELS
bool have_adx() {
  static const bool ok = __builtin_cpu_supports("adx") &&
                         __builtin_cpu_supports("bmi") &&
                         __builtin_cpu_supports("bmi2");
  return ok;
}
#endif

[[noreturn]] void no_kernel(std::size_t k) {
  throw ParamError("Montgomery: no fixed-width kernel for " +
                   std::to_string(k) + " limbs");
}

}  // namespace

bool mont_fixed_width(std::size_t k) {
#ifdef ICE_BN_HAVE_ADX_KERNELS
  return have_adx() && (k == 4 || k == 8 || k == 16);
#else
  (void)k;
  return false;
#endif
}

void mont_mul_fixed(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                    Limb n0inv, std::size_t k) {
#ifdef ICE_BN_HAVE_ADX_KERNELS
  switch (k) {
    case 16:
      return ice_bn_mont_mul16_adx(out, a, b, n, n0inv);
    case 8:
      return ice_bn_mont_mul8_adx(out, a, b, n, n0inv);
    case 4:
      return ice_bn_mont_mul4_adx(out, a, b, n, n0inv);
    default:
      break;
  }
#else
  (void)out, (void)a, (void)b, (void)n, (void)n0inv;
#endif
  no_kernel(k);
}

void mont_sqr_fixed(Limb* out, const Limb* a, const Limb* n, Limb n0inv,
                    std::size_t k) {
#ifdef ICE_BN_HAVE_ADX_KERNELS
  switch (k) {
    case 16:
      return ice_bn_mont_sqr16_adx(out, a, n, n0inv);
    case 8:
      return ice_bn_mont_sqr8_adx(out, a, n, n0inv);
    case 4:
      return ice_bn_mont_sqr4_adx(out, a, n, n0inv);
    default:
      break;
  }
#else
  (void)out, (void)a, (void)n, (void)n0inv;
#endif
  no_kernel(k);
}

}  // namespace ice::bn::detail
