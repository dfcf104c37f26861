// Package rtlib provides the "standard library" of the reproduction: a set
// of Tiny C modules compiled separately (precompiled, like the vendor
// libraries the paper links against) covering startup, integer division,
// printing, memory utilities, math routines, and sorting. Library-to-library
// calls (qsort through a comparison fnptr, print_array calling print, math
// helpers calling each other) reproduce the call structure the paper relies
// on: even interprocedurally optimized user code cannot improve calls into
// or inside these modules.
package rtlib

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/objfile"
	"repro/internal/tcc"
)

// CrtSource is the startup module: the linker's entry point calls main and
// halts with its result.
const CrtSource = `
// crt0: program startup.
long main();

long __start() {
	__halt(main());
	return 0;
}
`

// RtSource is the core runtime: output, exit, and integer division (the
// Alpha has no integer divide instruction; compilers call these routines).
const RtSource = `
// rt: core runtime services.

long print(long x) {
	__output(x);
	return 0;
}

long exit(long code) {
	__halt(code);
	return 0;
}

long labs(long x) {
	if (x < 0) { return -x; }
	return x;
}

long lmin(long a, long b) {
	if (a < b) { return a; }
	return b;
}

long lmax(long a, long b) {
	if (a > b) { return a; }
	return b;
}

// udivpos divides non-negative a by positive b by shift-subtract.
static long udivpos(long a, long b) {
	long q = 0;
	long r = a;
	long i = 62;
	while (i >= 0) {
		if ((r >> i) >= b) {
			r = r - (b << i);
			q = q + (1 << i);
		}
		i = i - 1;
	}
	return q;
}

long __divq(long a, long b) {
	long neg = 0;
	if (a < 0) { a = -a; neg = !neg; }
	if (b < 0) { b = -b; neg = !neg; }
	long q = udivpos(a, b);
	if (neg) { return -q; }
	return q;
}

long __remq(long a, long b) {
	return a - __divq(a, b) * b;
}
`

// MemSource provides block operations over long/double arrays.
const MemSource = `
// mem: block operations.

long memcpy8(long* dst, long* src, long n) {
	long i;
	for (i = 0; i < n; i = i + 1) {
		dst[i] = src[i];
	}
	return n;
}

long memset8(long* dst, long v, long n) {
	long i;
	for (i = 0; i < n; i = i + 1) {
		dst[i] = v;
	}
	return n;
}

long lsum(long* a, long n) {
	long s = 0;
	long i;
	for (i = 0; i < n; i = i + 1) {
		s = s + a[i];
	}
	return s;
}

long lrev(long* a, long n) {
	long i = 0;
	long j = n - 1;
	while (i < j) {
		long t = a[i];
		a[i] = a[j];
		a[j] = t;
		i = i + 1;
		j = j - 1;
	}
	return n;
}

double ddot(double* a, double* b, long n) {
	double s = 0.0;
	long i;
	for (i = 0; i < n; i = i + 1) {
		s = s + a[i] * b[i];
	}
	return s;
}

long dscale(double* a, long n, double k) {
	long i;
	for (i = 0; i < n; i = i + 1) {
		a[i] = a[i] * k;
	}
	return n;
}

double dmaxv(double* a, long n) {
	double m = a[0];
	long i;
	for (i = 1; i < n; i = i + 1) {
		if (a[i] > m) { m = a[i]; }
	}
	return m;
}
`

// MathSource provides double-precision math routines.
const MathSource = `
// math: double-precision routines built on the FP subset.

double dabs(double x) {
	if (x < 0.0) { return -x; }
	return x;
}

double dsqrt(double x) {
	if (x <= 0.0) { return 0.0; }
	double g = x;
	if (g > 1.0) { g = 0.5 * x + 0.5; }
	long i = 0;
	while (i < 30) {
		g = 0.5 * (g + x / g);
		i = i + 1;
	}
	return g;
}

double dsin(double x) {
	double pi = 3.141592653589793;
	double tp = 6.283185307179586;
	while (x > pi) { x = x - tp; }
	while (x < -pi) { x = x + tp; }
	double x2 = x * x;
	double t = x;
	double s = x;
	long k = 1;
	while (k < 11) {
		double d = (2.0 * k) * (2.0 * k + 1.0);
		t = -(t * x2) / d;
		s = s + t;
		k = k + 1;
	}
	return s;
}

double dcos(double x) {
	return dsin(x + 1.5707963267948966);
}

double dexp(double x) {
	long neg = 0;
	if (x < 0.0) { neg = 1; x = -x; }
	// Scale down into [0,1) by halving, square back up.
	long squarings = 0;
	while (x > 1.0) { x = 0.5 * x; squarings = squarings + 1; }
	double t = 1.0;
	double s = 1.0;
	long k = 1;
	while (k < 14) {
		t = t * x / k;
		s = s + t;
		k = k + 1;
	}
	while (squarings > 0) { s = s * s; squarings = squarings - 1; }
	if (neg) { return 1.0 / s; }
	return s;
}

double dpowi(double x, long n) {
	double r = 1.0;
	long neg = 0;
	if (n < 0) { neg = 1; n = -n; }
	while (n > 0) {
		if (n & 1) { r = r * x; }
		x = x * x;
		n = n >> 1;
	}
	if (neg) { return 1.0 / r; }
	return r;
}
`

// UtilSource provides a PRNG, hashing, searching, and an indirect-call
// quicksort (a library routine that calls through a procedure variable).
const UtilSource = `
// util: PRNG, hashing, sorting.

static long rngState = 88172645463325252;

long srand48(long seed) {
	if (seed == 0) { seed = 1; }
	rngState = seed;
	return 0;
}

long xrand() {
	// xorshift64
	long x = rngState;
	x = x ^ (x << 13);
	x = x ^ ((x >> 7) & 144115188075855871);
	x = x ^ (x << 17);
	rngState = x;
	if (x < 0) { return -x; }
	return x;
}

long lhash(long x) {
	x = x ^ (x >> 33);
	x = x * 1099511628211;
	x = x ^ (x >> 29);
	return x;
}

long binsearch(long* a, long n, long key) {
	long lo = 0;
	long hi = n - 1;
	while (lo <= hi) {
		long mid = (lo + hi) / 2;
		if (a[mid] == key) { return mid; }
		if (a[mid] < key) { lo = mid + 1; }
		else { hi = mid - 1; }
	}
	return -1;
}

// qsort8 sorts a[lo..hi] with a user comparison function: the classic
// library routine that calls through a procedure variable.
long qsort8(long* a, long lo, long hi, fnptr cmp) {
	if (lo >= hi) { return 0; }
	long pivot = a[(lo + hi) / 2];
	long i = lo;
	long j = hi;
	while (i <= j) {
		while (cmp(a[i], pivot) < 0) { i = i + 1; }
		while (cmp(pivot, a[j]) < 0) { j = j - 1; }
		if (i <= j) {
			long t = a[i];
			a[i] = a[j];
			a[j] = t;
			i = i + 1;
			j = j - 1;
		}
	}
	qsort8(a, lo, j, cmp);
	qsort8(a, i, hi, cmp);
	return 0;
}

long issorted(long* a, long n, fnptr cmp) {
	long i;
	for (i = 1; i < n; i = i + 1) {
		if (cmp(a[i], a[i-1]) < 0) { return 0; }
	}
	return 1;
}
`

// IoSource provides printing helpers (library-to-library calls into rt).
const IoSource = `
// io: formatted-ish output built on print.
long print(long x);

long print_array(long* a, long n) {
	long i;
	for (i = 0; i < n; i = i + 1) {
		print(a[i]);
	}
	return n;
}

long print_pair(long a, long b) {
	print(a);
	print(b);
	return 0;
}

// print_fixed prints a double as a fixed-point integer scaled by 1000000.
long print_fixed(double d) {
	double scaled = d * 1000000.0;
	long asInt = scaled;
	print(asInt);
	return 0;
}

long print_checksum(long* a, long n) {
	long h = 0;
	long i;
	for (i = 0; i < n; i = i + 1) {
		h = h * 31 + a[i];
	}
	print(h);
	return h;
}
`

// Module pairs a module name with its source text.
type Module struct {
	Name   string
	Source string
}

// Modules returns the library module list, crt0 first.
func Modules() []Module {
	return []Module{
		{"crt0", CrtSource},
		{"rt", RtSource},
		{"mem", MemSource},
		{"math", MathSource},
		{"util", UtilSource},
		{"io", IoSource},
	}
}

// Objects compiles each library module separately — the modules are
// "precompiled" in the paper's sense; user-side interprocedural compilation
// never sees their sources.
func Objects(opts tcc.Options) ([]*objfile.Object, error) {
	return ObjectsVia(tcc.Compile, opts)
}

// ObjectsVia compiles the library modules through the given tcc.Compile-
// compatible function, letting callers inject a caching compiler (e.g.
// (*buildcache.Cache).Compile) so repeated builds skip recompilation.
func ObjectsVia(compile func(unit string, sources []tcc.Source, opts tcc.Options) (*objfile.Object, error), opts tcc.Options) ([]*objfile.Object, error) {
	var objs []*objfile.Object
	for _, m := range Modules() {
		obj, err := compile("lib"+m.Name, []tcc.Source{{Name: m.Name + ".tc", Text: m.Source}}, opts)
		if err != nil {
			return nil, fmt.Errorf("rtlib: compiling %s: %w", m.Name, err)
		}
		objs = append(objs, obj)
	}
	return objs, nil
}

var (
	stdOnce sync.Once
	stdObjs []*objfile.Object
	stdErr  error
)

// StandardObjects compiles the library with the standard -O2 options. The
// result is compiled once per process and shared by every caller — linking
// never mutates object modules, so the precompiled library is reused across
// benchmarks, runners, and concurrent link jobs instead of being rebuilt.
func StandardObjects() ([]*objfile.Object, error) {
	stdOnce.Do(func() {
		stdObjs, stdErr = Objects(tcc.DefaultOptions())
	})
	return stdObjs, stdErr
}

// LoadObjects reads the named object files in order and, when withLib is
// set, appends the standard library. A file that fails to decode reports
// "<file>: <err>"; one that fails to open reports the open error, which
// names the file.
func LoadObjects(names []string, withLib bool) ([]*objfile.Object, error) {
	var objs []*objfile.Object
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		obj, err := objfile.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		objs = append(objs, obj)
	}
	if withLib {
		lib, err := StandardObjects()
		if err != nil {
			return nil, err
		}
		objs = append(objs, lib...)
	}
	return objs, nil
}
