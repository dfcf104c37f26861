package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles the command-line tools once into a temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"tcc", "tld", "om", "axsim", "axdis", "omdump"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func runTool(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func TestCLIToolchain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	work := t.TempDir()

	src := filepath.Join(work, "prog.tc")
	if err := os.WriteFile(src, []byte(`
long fib(long n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
long main() {
	print(fib(12));
	return 0;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	obj := filepath.Join(work, "prog.o")
	if _, errOut, err := runTool(t, filepath.Join(bins, "tcc"), "-o", obj, src); err != nil {
		t.Fatalf("tcc: %v\n%s", err, errOut)
	}

	// Standard link + run.
	base := filepath.Join(work, "base.out")
	if _, errOut, err := runTool(t, filepath.Join(bins, "tld"), "-o", base, obj); err != nil {
		t.Fatalf("tld: %v\n%s", err, errOut)
	}
	stdout, _, err := runTool(t, filepath.Join(bins, "axsim"), base)
	if err != nil {
		t.Fatalf("axsim: %v", err)
	}
	if strings.TrimSpace(stdout) != "144" {
		t.Fatalf("baseline output %q, want 144", stdout)
	}

	// OM link at each level + run; -stats must print a summary.
	for _, level := range []string{"none", "simple", "full"} {
		out := filepath.Join(work, "om_"+level+".out")
		_, errOut, err := runTool(t, filepath.Join(bins, "om"),
			"-o", out, "-level", level, "-stats", obj)
		if err != nil {
			t.Fatalf("om -level %s: %v\n%s", level, err, errOut)
		}
		if !strings.Contains(errOut, "addr loads") {
			t.Errorf("om -stats printed nothing useful: %q", errOut)
		}
		stdout, _, err := runTool(t, filepath.Join(bins, "axsim"), "-timing", out)
		if err != nil {
			t.Fatalf("axsim om_%s: %v", level, err)
		}
		if !strings.Contains(stdout, "144") {
			t.Errorf("om_%s output %q, want 144", level, stdout)
		}
	}

	// Disassembler on the object and the image.
	stdout, _, err = runTool(t, filepath.Join(bins, "axdis"), "-proc", "main", obj)
	if err != nil {
		t.Fatalf("axdis: %v", err)
	}
	for _, want := range []string{"main:", "jsr", "ldah"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("axdis output missing %q", want)
		}
	}
	stdout, _, err = runTool(t, filepath.Join(bins, "axdis"), base)
	if err != nil {
		t.Fatalf("axdis image: %v", err)
	}
	if !strings.Contains(stdout, "fib:") {
		t.Error("image disassembly missing fib label")
	}

	// omdump shows the lifted annotations.
	stdout, _, err = runTool(t, filepath.Join(bins, "omdump"), "-proc", "fib", obj)
	if err != nil {
		t.Fatalf("omdump: %v", err)
	}
	for _, want := range []string{"fib:", "GPDISP prologue", "LITERAL"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("omdump output missing %q:\n%s", want, stdout)
		}
	}

	// Optimistic mode: -G compiles, links, and runs identically.
	gobj := filepath.Join(work, "prog_g.o")
	if _, errOut, err := runTool(t, filepath.Join(bins, "tcc"), "-G", "64", "-o", gobj, src); err != nil {
		t.Fatalf("tcc -G: %v\n%s", err, errOut)
	}
	gout := filepath.Join(work, "g.out")
	if _, errOut, err := runTool(t, filepath.Join(bins, "tld"), "-o", gout, gobj); err != nil {
		t.Fatalf("tld -G build: %v\n%s", err, errOut)
	}
	stdout, _, err = runTool(t, filepath.Join(bins, "axsim"), gout)
	if err != nil || strings.TrimSpace(stdout) != "144" {
		t.Fatalf("optimistic build output %q (%v), want 144", stdout, err)
	}

	// Shared-library flag: link with libmath shared and run.
	sout := filepath.Join(work, "shared.out")
	if _, errOut, err := runTool(t, filepath.Join(bins, "om"),
		"-o", sout, "-level", "full", "-shared", "libmath,libutil", obj); err != nil {
		t.Fatalf("om -shared: %v\n%s", err, errOut)
	}
	stdout, _, err = runTool(t, filepath.Join(bins, "axsim"), sout)
	if err != nil || strings.TrimSpace(stdout) != "144" {
		t.Fatalf("shared build output %q (%v), want 144", stdout, err)
	}

	// Error paths: missing file, garbage object.
	if _, _, err := runTool(t, filepath.Join(bins, "tcc"), "-o", "/dev/null", filepath.Join(work, "nosuch.tc")); err == nil {
		t.Error("tcc should fail on a missing file")
	}
	bad := filepath.Join(work, "bad.o")
	os.WriteFile(bad, []byte("not an object"), 0o644)
	if _, _, err := runTool(t, filepath.Join(bins, "tld"), "-o", "/dev/null", bad); err == nil {
		t.Error("tld should fail on a garbage object")
	}
}

// TestExamples runs every example program end to end.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build per example")
	}
	examples := []struct {
		dir  string
		want []string
	}{
		{"quickstart", []string{"standard", "om-simple", "om-full", "speedup"}},
		{"callopt", []string{"driver under standard link", "OM-full", "jsr"}},
		{"gatshrink", []string{"GAT:", "OM-full statistics", "baseline output"}},
		{"profile", []string{"whole-program analysis", "dynamic profile", "eval"}},
		{"sharedlib", []string{"fully static", "dynamically linked", "GP resets remain"}},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(ex.dir, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+ex.dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", ex.dir, err, out)
			}
			for _, want := range ex.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("example %s output missing %q", ex.dir, want)
				}
			}
		})
	}
}
