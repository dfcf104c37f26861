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

// TestMain re-enters main when the test binary is started as the omverify
// command by runOmverify.
func TestMain(m *testing.M) {
	if os.Getenv("OMVERIFY_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOmverify runs the omverify command on args, returning its exit code,
// stdout and stderr.
func runOmverify(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OMVERIFY_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String(), stderr.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// linkTraced runs OM at level over the faultcheck fixture and the runtime
// library and writes its image and decision journal into dir, returning
// their paths.
func linkTraced(t *testing.T, dir string, level om.Level) (image, journal string) {
	t.Helper()
	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: faultcheckProgram}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Merge(append([]*objfile.Object{obj}, lib...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := om.Run(context.Background(), p, om.WithLevel(level), om.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	var im, j bytes.Buffer
	if err := res.Image.Write(&im); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJournal(&j, res.Journal); err != nil {
		t.Fatal(err)
	}
	image = filepath.Join(dir, level.String()+".out")
	journal = filepath.Join(dir, level.String()+".journal")
	if err := os.WriteFile(image, im.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, j.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return image, journal
}

// TestImage: -image alone checks the image statically; with its own
// journal it adds the verdicts at level full; with another link's journal
// the verdicts fail and the command exits 1.
func TestImage(t *testing.T) {
	dir := t.TempDir()
	image, journal := linkTraced(t, dir, om.LevelFull)
	_, otherJournal := linkTraced(t, dir, om.LevelNone)

	for _, tc := range []struct {
		args  []string
		level string
	}{
		{[]string{"-image", image, "-json"}, "static"},
		{[]string{"-image", image, "-journal", journal, "-json"}, "full"},
	} {
		code, stdout, stderr := runOmverify(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", tc.args, code, stderr)
		}
		doc, err := verify.ReadCheckDoc(strings.NewReader(stdout))
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if doc.Level != tc.level || len(doc.Reports) != 1 || doc.Reports[0].Source != "image" ||
			(doc.Verify != nil) != (tc.level == "full") {
			t.Fatalf("%v: document at level %s with %d reports, verdicts=%v; want level %s",
				tc.args, doc.Level, len(doc.Reports), doc.Verify != nil, tc.level)
		}
	}

	if code, stdout, stderr := runOmverify(t, "-image", image, "-journal", otherJournal); code != 1 {
		t.Fatalf("-image with another link's journal: exit %d, want 1\n%s%s", code, stdout, stderr)
	}
}

// TestChecks: -checks lists the whole dataflow catalog.
func TestChecks(t *testing.T) {
	code, stdout, stderr := runOmverify(t, "-checks")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	for _, id := range []string{"DF001", "DF002", "DF003", "DF004", "DF005", "DF006", "DF007", "DF008", "DF009"} {
		if !strings.Contains(stdout, id+" ") {
			t.Errorf("catalog lacks %s:\n%s", id, stdout)
		}
	}
}

// TestFaultcheck: the self-test catches the injected pass fault and names
// what it caught.
func TestFaultcheck(t *testing.T) {
	code, stdout, stderr := runOmverify(t, "-faultcheck")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "caught: ") || !strings.Contains(stdout, "faultcheck ok") {
		t.Fatalf("no caught finding reported:\n%s", stdout)
	}
}
