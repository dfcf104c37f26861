package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/om"
	"repro/internal/tcc"
	"repro/internal/verify"
)

// TestMain re-enters main when the test binary is started as the om command
// by runOM; OM_TEST_FAULT installs the standard pass fault first.
func TestMain(m *testing.M) {
	if os.Getenv("OM_TEST_MAIN") == "1" {
		if os.Getenv("OM_TEST_FAULT") == "1" {
			om.SetFaultHookForTesting(func(pg *om.Prog) { om.DeleteKeptLoad(pg) })
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOM runs the om command on args, with the pass fault when fault is set,
// returning its exit code and stderr.
func runOM(t *testing.T, fault bool, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OM_TEST_MAIN=1")
	if fault {
		cmd.Env = append(cmd.Env, "OM_TEST_FAULT=1")
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestCheckLevels: -check static and -check full link a clean program and,
// with -trace, write the om-check/v1 document (three reports at both
// levels, verdicts only at full), refuse to write the image of a
// deliberately broken pass run, and -check off lets that image through.
func TestCheckLevels(t *testing.T) {
	dir := t.TempDir()
	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: `
long table[24];
long step(long a, long b) { return b - a; }
long main() {
	long i;
	for (i = 0; i < 24; i = i + 1) { table[i] = lhash(i) % 97; }
	qsort8(table, 0, 23, step);
	print(table[0]);
	return 0;
}
`}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	objPath := filepath.Join(dir, "prog.o")
	var buf bytes.Buffer
	if err := obj.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, level := range []string{"static", "full"} {
		out := filepath.Join(dir, level+".out")
		trace := filepath.Join(dir, level+".journal")
		if code, stderr := runOM(t, false, "-check", level, "-trace", trace, "-o", out, objPath); code != 0 {
			t.Fatalf("-check %s on a clean program: exit %d\n%s", level, code, stderr)
		}
		if _, err := os.Stat(out); err != nil {
			t.Fatalf("-check %s wrote no image: %v", level, err)
		}
		f, err := os.Open(trace + ".check.json")
		if err != nil {
			t.Fatalf("-check %s wrote no check document: %v", level, err)
		}
		doc, err := verify.ReadCheckDoc(f)
		f.Close()
		if err != nil {
			t.Fatalf("-check %s: %v", level, err)
		}
		if doc.Level != level || len(doc.Reports) != 3 || (doc.Verify != nil) != (level == "full") {
			t.Fatalf("-check %s: document at level %s with %d reports, verdicts=%v; want 3 reports, verdicts only at full",
				level, doc.Level, len(doc.Reports), doc.Verify != nil)
		}

		broken := filepath.Join(dir, level+".broken")
		code, stderr := runOM(t, true, "-check", level, "-o", broken, objPath)
		if code != 1 || !strings.Contains(stderr, "check "+level) {
			t.Fatalf("-check %s missed the broken pass: exit %d\n%s", level, code, stderr)
		}
		if _, err := os.Stat(broken); !os.IsNotExist(err) {
			t.Fatalf("-check %s wrote the broken image", level)
		}
	}
	if code, stderr := runOM(t, true, "-check", "off", "-o", filepath.Join(dir, "off.out"), objPath); code != 0 {
		t.Fatalf("-check off refused an image: exit %d\n%s", code, stderr)
	}
	if code, _ := runOM(t, false, "-check", "lint", objPath); code != 2 {
		t.Fatalf("-check lint: exit %d, want 2", code)
	}
}
