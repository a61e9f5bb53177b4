package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// The cheap arithmetic experiments run in microseconds; exercise each one
// plus the experiment selector.
func TestRunSingleExperiments(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E13", "E14"} {
		if err := run([]string{"-experiment", id, "-seed", "3"}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRunSimulatedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated experiments in -short mode")
	}
	for _, id := range []string{"E10", "E11", "E12", "E15", "E16"} {
		if err := run([]string{"-experiment", id, "-seed", "3"}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "E99"}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestPaperFixtureIntegrity(t *testing.T) {
	// The fixture tables must carry the paper's exact counts.
	if got := example1().Low["C"]; got != 0 {
		t.Errorf("example1 LC = %d, want 0", got)
	}
	if got := example2().High["E"]; got != 7 {
		t.Errorf("example2 HE = %d, want 7", got)
	}
	if got := workedQ2().High["C"]; got != 10 {
		t.Errorf("worked q2 HC = %d, want 10", got)
	}
	if got := workedQ6().Low["A"]; got != 0 {
		t.Errorf("worked q6 LA = %d, want 0", got)
	}
}

// TestRunE20Smoke keeps the adaptive-delivery experiment from bit-rotting:
// it must run end to end (CI invokes it explicitly as well).
func TestRunE20Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment in -short mode")
	}
	if err := run([]string{"-experiment", "E20", "-seed", "3"}); err != nil {
		t.Errorf("E20: %v", err)
	}
}

// TestRecordWritesWholeDocument: -record writes the environment stamp and
// every section of the table as one document, so nothing an older file held
// survives and nothing a section writer used to drop goes missing — the
// allocation guard must find the hotpaths section in what was written.
func TestRecordWritesWholeDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(`{"stale":{"keep":true}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hot := &HotpathsSection{Allocs: []HotpathResult{{Name: "journal-commit/binary", AllocsPerOp: 3}}}
	want := []string{"goVersion", "gomaxprocs", "workers"}
	table := []experiment{{"P1", "print only", "", printOnly(func(int64) error { return nil })}}
	for _, e := range experiments() {
		if e.section == "" {
			continue
		}
		var v any = []string{e.id}
		if e.section == "hotpaths" {
			v = hot
		}
		table = append(table, experiment{e.id, e.title, e.section, func(int64) (any, error) { return v, nil }})
		want = append(want, e.section)
	}
	if err := record(path, 3, table); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("recorded keys %v, want %v", got, want)
	}
	base, err := readAllocBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base["journal-commit/binary"] != 3 {
		t.Errorf("alloc baseline %v, want journal-commit/binary = 3", base)
	}
}

// TestExperimentSections pins the baseline document's section keys, which
// -check-allocs and earlier recorded files read.
func TestExperimentSections(t *testing.T) {
	var got []string
	for _, e := range experiments() {
		if e.section != "" {
			got = append(got, e.section)
		}
	}
	want := []string{"results", "journal", "events", "hotpaths", "loadgen", "obs", "trace"}
	if !slices.Equal(got, want) {
		t.Errorf("sections %v, want %v", got, want)
	}
}
