package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/tcc"
	"repro/internal/verify"
)

// TestMain re-enters main when the test binary is started as the omtrace
// command by runOmtrace.
func TestMain(m *testing.M) {
	if os.Getenv("OMTRACE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOmtrace runs the omtrace command on args, returning its exit code and
// stderr.
func runOmtrace(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OMTRACE_TEST_MAIN=1")
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

// TestCheckVerify: -check -verify cross-checks a journal against the
// verdicts of the om-check/v1 document of a check=full link, and refuses
// the document of a check=static link, which holds no verdicts.
func TestCheckVerify(t *testing.T) {
	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: `
long table[16];
long down(long a, long b) { return b - a; }
long main() {
	long i;
	for (i = 0; i < 16; i = i + 1) { table[i] = lhash(i) % 53; }
	qsort8(table, 0, 15, down);
	print(table[0]);
	return 0;
}
`}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, w func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := w(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, level := range []verify.CheckLevel{verify.CheckStatic, verify.CheckFull} {
		p, err := link.Merge(append([]*objfile.Object{obj}, lib...))
		if err != nil {
			t.Fatal(err)
		}
		chk := &verify.Checker{Level: level}
		res, err := om.Run(context.Background(), p, append(chk.Options(), om.WithTrace())...)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := chk.Finish(res)
		if err != nil {
			t.Fatal(err)
		}
		journal := write(level.String()+".journal", func(b *bytes.Buffer) error { return obs.WriteJournal(b, res.Journal) })
		checkDoc := write(level.String()+".check.json", func(b *bytes.Buffer) error { return doc.Write(b) })

		code, stderr := runOmtrace(t, "-check", "-verify", checkDoc, journal)
		switch level {
		case verify.CheckFull:
			if code != 0 {
				t.Fatalf("full document refused: exit %d\n%s", code, stderr)
			}
		case verify.CheckStatic:
			if code != 1 || !strings.Contains(stderr, "-check full") {
				t.Fatalf("static document: exit %d, want 1 naming -check full\n%s", code, stderr)
			}
		}
	}
}
