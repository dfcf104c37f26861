package sim

import (
	"fmt"
	"testing"

	"repro/internal/axp"
)

// runAsm assembles a program, runs it, and returns its output trace. The
// program must end with a HALT.
func runAsm(t *testing.T, src string) []int64 {
	t.Helper()
	insts, _, err := axp.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(image(t, insts), Config{MaxInstructions: 100000})
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

// out is the canonical print-t0 sequence.
const emitT0 = `
	bis zero, t0, a0
	call_pal OUTPUT
`

func TestISABitBranches(t *testing.T) {
	out := runAsm(t, `
	lda  t0, 5(zero)      ; odd
	blbs t0, odd
	lda  t0, -1(zero)
odd:`+emitT0+`
	lda  t0, 4(zero)      ; even
	blbc t0, even
	lda  t0, -2(zero)
even:`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[5 4]" {
		t.Fatalf("got %v", out)
	}
}

func TestISALogicalAndShifts(t *testing.T) {
	out := runAsm(t, `
	lda  t1, 204(zero)      ; 0xCC
	lda  t2, 170(zero)      ; 0xAA
	bic  t1, t2, t0         ; 0xCC &^ 0xAA = 0x44
`+emitT0+`
	eqv  t1, t2, t0         ; ~(0xCC ^ 0xAA) = ~0x66
`+emitT0+`
	lda  t1, 1(zero)
	sll  t1, #40, t0
	srl  t0, #8, t0         ; 1<<32
`+emitT0+`
	lda  t1, -16(zero)
	sra  t1, #2, t0         ; -4
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	want := fmt.Sprint([]int64{0x44, ^int64(0x66), 1 << 32, -4})
	if fmt.Sprint(out) != want {
		t.Fatalf("got %v, want %v", out, want)
	}
}

func TestISAMultiplyHigh(t *testing.T) {
	out := runAsm(t, `
	lda  t1, 1(zero)
	sll  t1, #63, t1        ; 0x8000000000000000 (unsigned 2^63)
	lda  t2, 4(zero)
	umulh t1, t2, t0        ; (2^63 * 4) >> 64 = 2
`+emitT0+`
	lda  t1, -1(zero)       ; unsigned max
	lda  t2, 2(zero)
	umulh t1, t2, t0        ; (2^64-1)*2 >> 64 = 1
`+emitT0+`
	lda  t1, 7(zero)
	mull t1, t1, t0         ; 49, longword
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[2 1 49]" {
		t.Fatalf("got %v", out)
	}
}

func TestISAUnsignedCompares(t *testing.T) {
	out := runAsm(t, `
	lda  t1, -1(zero)       ; unsigned max
	lda  t2, 1(zero)
	cmpule t1, t2, t0       ; max <= 1? no
`+emitT0+`
	cmpule t2, t1, t0       ; 1 <= max? yes
`+emitT0+`
	cmpult t2, t2, t0       ; 1 < 1? no
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[0 1 0]" {
		t.Fatalf("got %v", out)
	}
}

func TestISAConditionalMoves(t *testing.T) {
	out := runAsm(t, `
	lda  t0, 9(zero)
	lda  t1, -3(zero)
	cmovlt t1, #7, t0       ; t1 < 0, so t0 = 7
`+emitT0+`
	lda  t0, 9(zero)
	cmovge t1, #5, t0       ; t1 >= 0? no: t0 stays 9
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[7 9]" {
		t.Fatalf("got %v", out)
	}
}

func TestISAScaledAdd(t *testing.T) {
	out := runAsm(t, `
	lda  t1, 10(zero)
	s4addq t1, #2, t0       ; 42
`+emitT0+`
	s8addq t1, #3, t0       ; 83
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[42 83]" {
		t.Fatalf("got %v", out)
	}
}

func TestISAUnalignedLoad(t *testing.T) {
	// ldq_u with a non-zero destination really loads (rounded down).
	out := runAsm(t, `
	lda  t1, 1234(zero)
	stq  t1, -8(sp)
	lda  t2, -3(sp)         ; unaligned pointer into the stored quad
	ldq_u t0, 0(t2)
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[1234]" {
		t.Fatalf("got %v", out)
	}
}

func TestISAJmp(t *testing.T) {
	out := runAsm(t, `
	bsr  ra, gettarget
	; ra now points at the lda below
	lda  t0, 55(zero)
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
gettarget:
	jmp  zero, (ra)         ; plain jump back
`)
	if fmt.Sprint(out) != "[55]" {
		t.Fatalf("got %v", out)
	}
}

func TestISAFloatBranchesAndSign(t *testing.T) {
	out := runAsm(t, `
	; build -2.5: 0xC004000000000000
	lda  t1, -16380(zero)   ; 0xC004 sign-extended
	sll  t1, #48, t1
	stq  t1, -8(sp)
	ldt  f1, -8(sp)
	fblt f1, isneg
	lda  t0, -1(zero)
	br   zero, done1
isneg:
	lda  t0, 1(zero)
done1:`+emitT0+`
	; cpys: copy sign of +1.0-ish (f31=+0) onto f1 -> +2.5
	cpys f31, f1, f2
	fbge f2, ispos
	lda  t0, -1(zero)
	br   zero, done2
ispos:
	lda  t0, 2(zero)
done2:`+emitT0+`
	; fbgt/fble
	fbgt f2, gt
	lda  t0, -1(zero)
gt:
	fble f1, le
	lda  t0, -1(zero)
le:`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[1 2 2]" {
		t.Fatalf("got %v", out)
	}
}

func TestISACvtQT(t *testing.T) {
	out := runAsm(t, `
	lda  t1, -7(zero)
	stq  t1, -8(sp)
	ldt  f1, -8(sp)
	cvtqt f31, f1, f2       ; f2 = -7.0
	addt f2, f2, f3         ; -14.0
	cvttq f31, f3, f4
	stt  f4, -16(sp)
	ldq  t0, -16(sp)
`+emitT0+`
	bis zero, zero, a0
	call_pal HALT
`)
	if fmt.Sprint(out) != "[-14]" {
		t.Fatalf("got %v", out)
	}
}

func TestISAUnknownPalFails(t *testing.T) {
	// 1<<25|7 has the shape of a block-counting trap; the simulator counts
	// blocks itself, so that code must fault like any other, not run as a
	// silent no-op.
	for _, fn := range []uint32{0x77, 1<<25 | 7} {
		insts := []axp.Inst{axp.Pal(fn)}
		if _, err := Run(image(t, insts), Config{}); err == nil {
			t.Errorf("PAL function %#x: expected error for unknown PAL function", fn)
		}
	}
}

func TestOutputChar(t *testing.T) {
	insts, _, err := axp.Assemble(`
	lda a0, 72(zero)
	call_pal OUTPUTC
	lda a0, 105(zero)
	call_pal OUTPUTC
	bis zero, zero, a0
	call_pal HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(image(t, insts), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.OutBytes) != "Hi" {
		t.Fatalf("got %q", res.OutBytes)
	}
}
