package tcc

import (
	"strings"
	"testing"

	"repro/internal/axp"
	"repro/internal/objfile"
)

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("t.tc", `long f(long x) { return x + 0x10 * 2.5e1; } // c
/* block */ static extern`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokLong, TokIdent, TokLParen, TokLong, TokIdent, TokRParen,
		TokLBrace, TokReturn, TokIdent, TokPlus, TokInt, TokStar, TokFloat, TokSemi,
		TokRBrace, TokStatic, TokExtern, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[10].Int != 0x10 {
		t.Errorf("hex literal = %d, want 16", toks[10].Int)
	}
	if toks[12].Flt != 25.0 {
		t.Errorf("float literal = %v, want 25", toks[12].Flt)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "/* unterminated", "9999999999999999999999999"} {
		if _, err := LexAll("t.tc", src); err == nil {
			t.Errorf("LexAll(%q): expected error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"long;",
		"long f(long) {}",
		"long f(long a, long b, long c, long d, long e, long g, long h) { return 0; }",
		"long x[0];",
		"long f() { return 1 }",
		"long f() { if (1) }",
		"double d = {1.0};",
		"extern long x = 5;",
		"extern long f() { return 0; }",
		"long f() { break; }",
		"long f() { return g(); }",
		"long f() { long x; long x; return 0; }",
		"long x; long x;",
		"long f() { return 0; } long f() { return 1; }",
		"long f() { return y; }",
		"long f() { 1 = 2; return 0; }",
		"long f() { return 1.5 & 2; }",
		"double d; long f() { return d[0]; }",
		"long v; long f() { return *v; }",
		"long f(double x) { return 0; } long g() { return f(&g); }",
	}
	for _, src := range cases {
		if _, err := Compile("u", []Source{{Name: "t.tc", Text: src}}, DefaultOptions()); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

const helloSrc = `
long g1 = 5;
long arr[10];
static long s1 = 7;
double pi = 3.14159;

long helper(long a, long b) {
	return a * b + g1;
}

static long shelper(long x) {
	return x - 1;
}

long main() {
	long i;
	long sum = 0;
	for (i = 0; i < 10; i = i + 1) {
		arr[i] = helper(i, i + 1);
		sum = sum + arr[i];
	}
	if (sum > 100 && g1 == 5) {
		sum = shelper(sum);
	}
	while (sum % 7 != 0) {
		sum = sum - 1;
	}
	__output(sum);
	return sum;
}
`

func compileOne(t *testing.T, src string, opts Options) *objfile.Object {
	t.Helper()
	obj, err := Compile("u", []Source{{Name: "t.tc", Text: src}}, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := obj.Validate(); err != nil {
		t.Fatalf("invalid object: %v", err)
	}
	return obj
}

func TestCompileHello(t *testing.T) {
	obj := compileOne(t, helloSrc, DefaultOptions())
	// Must define main, helper, and the mangled static.
	for _, name := range []string{"main", "helper", "t$shelper", "g1", "pi", "t$s1"} {
		if obj.FindSymbol(name) < 0 {
			t.Errorf("symbol %s not defined", name)
		}
	}
	// arr is uninitialized and exported: a common.
	i := obj.FindSymbol("arr")
	if i < 0 || obj.Symbols[i].Kind != objfile.SymCommon || obj.Symbols[i].Size != 80 {
		t.Errorf("arr should be an 80-byte common, got %+v", obj.Symbols[i])
	}
	// __divq is referenced (the % operator) but undefined here.
	d := obj.FindSymbol("__remq")
	if d < 0 || obj.Symbols[d].Kind != objfile.SymUndef {
		t.Errorf("__remq should be an undefined reference")
	}
	// Relocation sanity: every LITERAL slot index within lita, LITUSE links
	// to a LITERAL instruction.
	litAt := map[uint64]bool{}
	slots := obj.LitaSlots()
	for _, r := range obj.Relocs {
		if r.Kind == objfile.RLiteral {
			if int(r.Extra) >= slots {
				t.Errorf("LITERAL slot %d out of range (%d slots)", r.Extra, slots)
			}
			litAt[r.Offset] = true
		}
	}
	for _, r := range obj.Relocs {
		if (r.Kind == objfile.RLituseBase || r.Kind == objfile.RLituseJSR) && !litAt[r.Extra] {
			t.Errorf("LITUSE at %#x references %#x which is not a LITERAL", r.Offset, r.Extra)
		}
	}
	// GP-disp pairs point at ldah/lda.
	insts, err := axp.DecodeAll(obj.Sections[objfile.SecText].Data)
	if err != nil {
		t.Fatalf("generated text does not decode: %v", err)
	}
	for _, r := range obj.Relocs {
		if r.Kind != objfile.RGPDisp {
			continue
		}
		if insts[r.Offset/4].Op != axp.LDAH {
			t.Errorf("GPDISP high at %#x is %v, want ldah", r.Offset, insts[r.Offset/4].Op)
		}
		if insts[r.Extra/4].Op != axp.LDA {
			t.Errorf("GPDISP low at %#x is %v, want lda", r.Extra, insts[r.Extra/4].Op)
		}
	}
}

func TestStaticCallUsesBSR(t *testing.T) {
	obj := compileOne(t, helloSrc, DefaultOptions())
	foundLocalCall := false
	for _, r := range obj.Relocs {
		if r.Kind == objfile.RBrAddr && r.Addend == 8 {
			foundLocalCall = true
			sym := obj.Symbols[r.Symbol]
			if sym.Name != "t$shelper" {
				t.Errorf("local-entry call to %s, want t$shelper", sym.Name)
			}
		}
	}
	if !foundLocalCall {
		t.Error("expected a compile-time-optimized bsr to the static helper")
	}

	// With the optimization off, no BRADDR relocations at all.
	opts := DefaultOptions()
	opts.OptimizeStaticCalls = false
	obj2 := compileOne(t, helloSrc, opts)
	for _, r := range obj2.Relocs {
		if r.Kind == objfile.RBrAddr {
			t.Error("unexpected BRADDR with static-call optimization off")
		}
	}
}

func TestSchedulerDisplacesPrologue(t *testing.T) {
	// With scheduling on, some non-local-entry procedure should not have
	// its GP pair at offsets 0 and 4 (the paper's phenomenon).
	obj := compileOne(t, helloSrc, DefaultOptions())
	split := 0
	checked := 0
	for _, sym := range obj.Symbols {
		if sym.Kind != objfile.SymProc || sym.Name == "t$shelper" {
			continue
		}
		checked++
		var hiOff, loOff uint64 = 1 << 60, 1 << 60
		for _, r := range obj.Relocs {
			if r.Kind == objfile.RGPDisp && uint64(r.Addend) == sym.Value {
				if r.Offset < hiOff {
					hiOff, loOff = r.Offset, r.Extra
				}
			}
		}
		if hiOff != sym.Value || loOff != sym.Value+4 {
			split++
		}
	}
	if checked == 0 {
		t.Fatal("no procedures checked")
	}
	if split == 0 {
		t.Error("expected the scheduler to displace at least one prologue GP pair")
	}

	// Without scheduling, every prologue pair sits at entry.
	opts := DefaultOptions()
	opts.Schedule = false
	obj2 := compileOne(t, helloSrc, opts)
	for _, sym := range obj2.Symbols {
		if sym.Kind != objfile.SymProc {
			continue
		}
		found := false
		for _, r := range obj2.Relocs {
			if r.Kind == objfile.RGPDisp && r.Offset == sym.Value && r.Extra == sym.Value+4 {
				found = true
			}
		}
		if !found {
			t.Errorf("unscheduled %s: GP pair not at entry", sym.Name)
		}
	}
}

func TestLocalEntryPinned(t *testing.T) {
	// Static procedures keep their GP pair at entry even when scheduled,
	// because callers bsr to entry+8.
	obj := compileOne(t, helloSrc, DefaultOptions())
	i := obj.FindSymbol("t$shelper")
	if i < 0 {
		t.Fatal("no static helper")
	}
	sym := obj.Symbols[i]
	found := false
	for _, r := range obj.Relocs {
		if r.Kind == objfile.RGPDisp && r.Offset == sym.Value && r.Extra == sym.Value+4 {
			found = true
		}
	}
	if !found {
		t.Error("static helper's GP pair must be pinned at entry")
	}
}

func TestCompileFnptrIndirectCall(t *testing.T) {
	src := `
long add1(long x) { return x + 1; }
long twice(long x) { return x * 2; }
fnptr table;
long main() {
	table = add1;
	long a = table(4);
	table = twice;
	return a + table(4);
}
`
	obj := compileOne(t, src, DefaultOptions())
	// Function addresses appear in the GAT (taken as values).
	haveAdd1 := false
	for _, r := range obj.Relocs {
		if r.Kind == objfile.RRefQuad && r.Section == objfile.SecLita {
			if obj.Symbols[r.Symbol].Name == "add1" {
				haveAdd1 = true
			}
		}
	}
	if !haveAdd1 {
		t.Error("add1's address should be in the GAT")
	}
	// The indirect call's jsr must NOT carry a LITUSE_JSR.
	insts, err := axp.DecodeAll(obj.Sections[objfile.SecText].Data)
	if err != nil {
		t.Fatal(err)
	}
	jsrWithUse := map[uint64]bool{}
	for _, r := range obj.Relocs {
		if r.Kind == objfile.RLituseJSR {
			jsrWithUse[r.Offset] = true
		}
	}
	indirect := 0
	for i, in := range insts {
		if in.Op == axp.JSR && !jsrWithUse[uint64(i*4)] {
			indirect++
		}
	}
	if indirect < 2 {
		t.Errorf("expected >=2 indirect jsr sites, got %d", indirect)
	}
}

func TestCompileDoubleOps(t *testing.T) {
	src := `
double acc = 0.0;
double scale(double x, long n) {
	double r = x;
	long i;
	for (i = 0; i < n; i = i + 1) {
		r = r * 1.5 + 0.25 + i;
	}
	if (r > 100.0) { r = r / 2.0; }
	return r;
}
long main() {
	acc = scale(2.0, 3);
	return acc > 1.0;
}
`
	obj := compileOne(t, src, DefaultOptions())
	insts, err := axp.DecodeAll(obj.Sections[objfile.SecText].Data)
	if err != nil {
		t.Fatal(err)
	}
	var haveMulT, haveDivT, haveCvtQT, haveCmpT bool
	for _, in := range insts {
		switch in.Op {
		case axp.MULT:
			haveMulT = true
		case axp.DIVT:
			haveDivT = true
		case axp.CVTQT:
			haveCvtQT = true
		case axp.CMPTLT, axp.CMPTLE, axp.CMPTEQ:
			haveCmpT = true
		}
	}
	if !haveMulT || !haveDivT || !haveCvtQT || !haveCmpT {
		t.Errorf("missing FP ops: mult=%v divt=%v cvtqt=%v cmpt=%v",
			haveMulT, haveDivT, haveCvtQT, haveCmpT)
	}
}

func TestInlineUnit(t *testing.T) {
	src := `
long sq(long x) { return x * x; }
long uses(long a) { return sq(a) + sq(3); }
`
	f, err := ParseFile("t.tc", src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Analyze("u", []*File{f})
	if err != nil {
		t.Fatal(err)
	}
	// sq(a): a used twice in x*x -> not inlined. sq(3) same; param count
	// rule blocks both.
	if n := InlineUnit(u); n != 0 {
		t.Errorf("inlined %d, want 0 (param used twice)", n)
	}

	src2 := `
long half(long x) { return x >> 1; }
long g;
long uses(long a) { return half(a) + half(g); }
`
	f2, err := ParseFile("t.tc", src2)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := Analyze("u", []*File{f2})
	if err != nil {
		t.Fatal(err)
	}
	if n := InlineUnit(u2); n != 2 {
		t.Errorf("inlined %d, want 2", n)
	}
	// Result must still compile.
	if _, err := Generate(u2, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestCompileAllModesProduceDifferentCode(t *testing.T) {
	obj1 := compileOne(t, helloSrc, DefaultOptions())
	obj2 := compileOne(t, helloSrc, InterprocOptions())
	if obj1.Sections[objfile.SecText].Size == 0 || obj2.Sections[objfile.SecText].Size == 0 {
		t.Fatal("empty text")
	}
}

func TestGeneratedCodeDecodes(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), InterprocOptions(), {SmallDataBytes: 8}} {
		obj := compileOne(t, helloSrc, opts)
		if _, err := axp.DecodeAll(obj.Sections[objfile.SecText].Data); err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

func TestMangle(t *testing.T) {
	f := &File{Name: "dir/sub/mod1.tc"}
	if got := mangle(f, "x"); got != "mod1$x" {
		t.Errorf("mangle = %q, want mod1$x", got)
	}
}

func TestCompileExternRefs(t *testing.T) {
	a := `extern long shared; long get() { return shared; }`
	b := `long shared = 42;`
	// Separate compilation: module a has an undef for shared.
	objA := compileOne(t, a, DefaultOptions())
	i := objA.FindSymbol("shared")
	if i < 0 || objA.Symbols[i].Kind != objfile.SymUndef {
		t.Errorf("shared should be undefined in module a")
	}
	// Compiled together, it resolves.
	obj, err := Compile("u", []Source{{Name: "a.tc", Text: a}, {Name: "b.tc", Text: b}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	j := obj.FindSymbol("shared")
	if j < 0 || obj.Symbols[j].Kind != objfile.SymData {
		t.Errorf("shared should be defined when compiled together, got %v", obj.Symbols[j].Kind)
	}
}

func TestForwardDeclThenDefine(t *testing.T) {
	src := `
long g(long x);
long f(long x) { return g(x) + 1; }
long g(long x) { return x * 2; }
`
	obj := compileOne(t, src, DefaultOptions())
	i := obj.FindSymbol("g")
	if i < 0 || obj.Symbols[i].Kind != objfile.SymProc {
		t.Fatalf("g should be a defined procedure")
	}
}

func TestFragStringSmoke(t *testing.T) {
	f, err := ParseFile("t.tc", "long f(long x){ return x+1; }")
	if err != nil {
		t.Fatal(err)
	}
	u, err := Analyze("u", []*File{f})
	if err != nil {
		t.Fatal(err)
	}
	fg := newFuncgen(&codegen{unit: u, opts: DefaultOptions(),
		varSym: map[*VarDecl]string{}, funcSym: map[*FuncDecl]string{u.FuncOrder[0]: "f"},
		constPool: map[uint64]string{}, mb: newModuleBuilder("u")}, u.FuncOrder[0])
	frag, err := fg.generate()
	if err != nil {
		t.Fatal(err)
	}
	s := frag.String()
	if !strings.Contains(s, "f:") || !strings.Contains(s, "ret") {
		t.Errorf("frag dump missing pieces:\n%s", s)
	}
}

func TestConstantFolding(t *testing.T) {
	// 6*7 must fold to a single lda; no mulq in main.
	obj := compileOne(t, `long main() { return 6 * 7 + (1 << 10) - (20 / 3); }`, DefaultOptions())
	insts, err := axp.DecodeAll(obj.Sections[objfile.SecText].Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		if in.Op == axp.MULQ || in.Op == axp.SLL {
			t.Errorf("constant expression not folded: %v", in)
		}
		if in.Op == axp.JSR {
			t.Errorf("constant division not folded: call emitted")
		}
	}
}

func TestFoldIntSemantics(t *testing.T) {
	mk := func(op TokKind, a, b int64) *Expr {
		return &Expr{Kind: ExprBinary, Op: op, Type: TypeLong,
			X: &Expr{Kind: ExprIntLit, Int: a, Type: TypeLong},
			Y: &Expr{Kind: ExprIntLit, Int: b, Type: TypeLong}}
	}
	cases := []struct {
		op   TokKind
		a, b int64
		want int64
	}{
		{TokPlus, 1 << 62, 1 << 62, -9223372036854775808}, // wraps
		{TokStar, -7, 6, -42},
		{TokSlash, -7, 2, -3}, // truncates toward zero
		{TokPercent, -7, 2, -1},
		{TokShl, 1, 70, 64},  // shift count masked to 6 bits
		{TokShr, -64, 3, -8}, // arithmetic
		{TokLt, -1, 0, 1},
		{TokNe, 5, 5, 0},
	}
	for _, c := range cases {
		got, ok := foldInt(mk(c.op, c.a, c.b))
		if !ok || got != c.want {
			t.Errorf("fold %v(%d,%d) = %d,%v want %d", c.op, c.a, c.b, got, ok, c.want)
		}
	}
	if _, ok := foldInt(mk(TokSlash, 1, 0)); ok {
		t.Error("division by zero must not fold")
	}
	if _, ok := foldInt(mk(TokPercent, 1, 0)); ok {
		t.Error("mod by zero must not fold")
	}
}

func TestExpressionTooComplex(t *testing.T) {
	// A balanced expression deep enough to exhaust the 12 integer temps
	// must fail with a clean diagnostic, not a panic. Global reads as
	// leaves prevent constant folding, and no calls means no spilling.
	expr := "gv"
	for i := 0; i < 12; i++ { // each level holds one more temp live
		expr = "(" + expr + " + " + expr + ")"
	}
	src := "long gv = 1;\nlong main() { return " + expr + "; }"
	_, err := Compile("u", []Source{{Name: "t", Text: src}}, DefaultOptions())
	if err == nil {
		t.Fatal("expected out-of-temporaries diagnostic")
	}
	if !strings.Contains(err.Error(), "too complex") {
		t.Errorf("unexpected diagnostic: %v", err)
	}

	// A right-leaning chain of the same size stays shallow and compiles.
	chain := "gv"
	for i := 0; i < 40; i++ {
		chain = "gv + (" + chain + ")"
	}
	src2 := "long gv = 1;\nlong main() { return " + chain + "; }"
	if _, err := Compile("u", []Source{{Name: "t", Text: src2}}, DefaultOptions()); err != nil {
		t.Errorf("chain should compile: %v", err)
	}
}

func TestSemaCornerCases(t *testing.T) {
	good := []string{
		// fnptr passed through, compared, reassigned.
		"long f(long x) { return x; } long g() { fnptr p = f; fnptr q; q = p; return (p == q) + q(3); }",
		// double condition contexts.
		"double d = 1.0; long f() { if (d) { return 1; } while (d > 2.0) { d = d - 1.0; } return 0; }",
		// nested arrays and pointers.
		"long a[8]; long f(long* p) { return p[1]; } long g() { a[1] = 9; return f(a) + f(&a[0]); }",
		// unary chains.
		"long f(long x) { return -(-x) + ~(~x) + !!x; }",
		// implicit conversions both ways in returns and args.
		"double h(double x) { return x; } long f(long n) { double d = h(n); long m = d; return m; }",
		// for loop with empty sections.
		"long f() { long i = 0; for (;;) { i = i + 1; if (i > 3) { break; } } return i; }",
		// shadowing in nested blocks.
		"long f() { long x = 1; { long y = x + 1; { long z = y + 1; x = z; } } return x; }",
	}
	for _, src := range good {
		if _, err := Compile("u", []Source{{Name: "t", Text: src}}, DefaultOptions()); err != nil {
			t.Errorf("should compile: %q: %v", src, err)
		}
	}
	bad := []string{
		// fnptr arithmetic and bad comparisons.
		"long f(long x) { return x; } long g() { fnptr p = f; return p + 1; }",
		"long f(long x) { return x; } long g() { fnptr p = f; return p < p; }",
		// address of fnptr var.
		"long f(long x) { return x; } long g() { fnptr p = f; fnptr* q = &p; return 0; }",
		// calling a long variable.
		"long v; long g() { return v(1); }",
		// array used as scalar condition.
		"long a[4]; long g() { if (a) { return 1; } return 0; }",
		// wrong arity.
		"long f(long x, long y) { return x + y; } long g() { return f(1); }",
		// assigning array.
		"long a[4]; long b[4]; long g() { a = b; return 0; }",
		// builtin as value.
		"long g() { fnptr p = __output; return 0; }",
		// return type mismatch through pointers.
		"double d; long g() { long* p = &d; return *p; }",
	}
	for _, src := range bad {
		if _, err := Compile("u", []Source{{Name: "t", Text: src}}, DefaultOptions()); err == nil {
			t.Errorf("should NOT compile: %q", src)
		}
	}
}

// TestLituseNotAcrossCall: an address loaded before a call and consumed
// after it is spilled and reloaded around the call, so its use reads the
// reloaded copy. Such a use must carry no LITUSE: the link would let the
// linker delete the load while the spill store still reads its register.
func TestLituseNotAcrossCall(t *testing.T) {
	src := `
long g[4];
long f(long x) { return x + 1; }
long main() {
	g[1] = f(3);
	return g[1];
}
`
	obj := compileOne(t, src, DefaultOptions())
	insts, err := axp.DecodeAll(obj.Sections[objfile.SecText].Data)
	if err != nil {
		t.Fatal(err)
	}
	lits := map[uint64]bool{}
	for _, r := range obj.Relocs {
		if r.Kind == objfile.RLiteral && r.Section == objfile.SecText {
			lits[r.Offset] = true
		}
	}
	// The case must occur: some literal's register is spilled to the
	// stack before a call.
	spilled := false
	for off := range lits {
		reg := insts[off/4].Ra
		for _, in := range insts[off/4+1:] {
			if in.Op == axp.JSR || in.Op == axp.BSR {
				break
			}
			if in.Op == axp.STQ && in.Ra == reg && in.Rb == axp.SP {
				spilled = true
			}
		}
	}
	if !spilled {
		t.Fatal("fixture no longer spills an address across a call")
	}
	for _, r := range obj.Relocs {
		if r.Kind != objfile.RLituseBase && r.Kind != objfile.RLituseJSR {
			continue
		}
		if !lits[r.Extra] {
			t.Fatalf("LITUSE at %#x references %#x, not a LITERAL", r.Offset, r.Extra)
		}
		reg := insts[r.Extra/4].Ra
		for i := r.Extra/4 + 1; i < r.Offset/4; i++ {
			in := insts[i]
			if in.Op == axp.JSR || in.Op == axp.BSR || in.Writes() == reg {
				t.Errorf("LITUSE at %#x of the load at %#x crosses %v at %#x", r.Offset, r.Extra, in.Op, i*4)
			}
		}
	}
}
