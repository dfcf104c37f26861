package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/spec"
)

func runOne(t *testing.T, name string) *Result {
	t.Helper()
	r := New()
	b, ok := spec.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	res, err := r.RunBenchmark(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBenchmarkMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix run in -short mode")
	}
	res := runOne(t, "spice")
	if len(res.M) != len(AllVariants()) {
		t.Fatalf("measured %d variants, want %d", len(res.M), len(AllVariants()))
	}
	for _, v := range AllVariants() {
		m := res.M[v]
		if m == nil {
			t.Fatalf("missing variant %v", v)
		}
		if m.Run.Cycles == 0 || m.Run.Instructions == 0 {
			t.Errorf("%v: empty dynamic stats", v)
		}
		if v.Link == LinkStandard && m.Static != nil {
			t.Errorf("%v: standard link should have no OM stats", v)
		}
		if v.Link != LinkStandard && m.Static == nil {
			t.Errorf("%v: OM variant missing stats", v)
		}
	}
	// OM-full must execute fewer instructions than the standard link.
	base := res.M[Variant{CompileEach, LinkStandard}].Run.Instructions
	full := res.M[Variant{CompileEach, OMFull}].Run.Instructions
	if full >= base {
		t.Errorf("om-full executed %d instructions >= baseline %d", full, base)
	}
	// Improvement accessor is consistent with raw cycles.
	imp := res.Improvement(CompileEach, OMFull)
	if imp < -20 || imp > 50 {
		t.Errorf("implausible improvement %.2f%%", imp)
	}

	// Figure renderers accept the result and mention the benchmark.
	results := []*Result{res}
	for i, body := range []string{
		Figure3(results), Figure4(results), Figure5(results),
		Figure6(results), Figure7(results), GATTable(results), CodeSizeTable(results),
	} {
		if !strings.Contains(body, "spice") {
			t.Errorf("figure %d does not mention the benchmark:\n%s", i, body)
		}
	}
}

func TestRunSuiteUnknownBenchmark(t *testing.T) {
	r := New()
	if _, err := r.RunSuite(context.Background(), []string{"nosuch"}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestMeanAndMedian(t *testing.T) {
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if m := mean(nil); m != 0 {
		t.Errorf("mean(nil) = %v", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation matrix in -short mode")
	}
	r := New()
	rows, err := r.RunAblations(context.Background(), []string{"spice"})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 9 // full + 8 single-component ablations
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	var full, noAddr, noCall float64
	var fullDeleted, noPrologueDeleted int
	for _, row := range rows {
		switch row.Ablation.Name() {
		case "full":
			full = row.Improvement
			fullDeleted = row.Deleted
		case "-address-opt":
			noAddr = row.Improvement
		case "-call-opt":
			noCall = row.Improvement
		case "-prologue-delete":
			noPrologueDeleted = row.Deleted
		}
	}
	// Disabling components must not help more than a hair (layout noise),
	// and disabling the address optimization must hurt measurably.
	if noAddr >= full {
		t.Errorf("disabling address opt did not hurt: %.2f%% vs full %.2f%%", noAddr, full)
	}
	if noCall > full+1 {
		t.Errorf("disabling call opt helped?! %.2f%% vs full %.2f%%", noCall, full)
	}
	if noPrologueDeleted >= fullDeleted {
		t.Errorf("keeping prologues should delete fewer instructions: %d vs %d",
			noPrologueDeleted, fullDeleted)
	}
	table := AblationTable(rows)
	if !strings.Contains(table, "-address-opt") || !strings.Contains(table, "full") {
		t.Errorf("table missing rows:\n%s", table)
	}
}
