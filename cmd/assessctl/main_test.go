package main

import (
	"os"
	"path/filepath"
	"testing"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/core"
	"mineassess/internal/simulate"
)

func seededBankPath(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bank.json")
	if err := run([]string{"seed", "-bank", path, "-problems", "30", "-concepts", "3"}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return path
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no subcommand should fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
}

func TestSeedCreatesLoadableBank(t *testing.T) {
	path := seededBankPath(t)
	store, err := bank.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if store.ProblemCount() != 30 {
		t.Errorf("problems = %d, want 30", store.ProblemCount())
	}
	exams := store.ExamIDs()
	if len(exams) != 1 || exams[0] != "final" {
		t.Errorf("exams = %v", exams)
	}
}

func TestSeedBankStyles(t *testing.T) {
	store := bank.NewSharded(0)
	if _, err := SeedBank(store, 25, 4); err != nil {
		t.Fatal(err)
	}
	counts := store.CountByStyle()
	if len(counts) < 3 {
		t.Errorf("styles = %v, want at least MC, TF and Completion", counts)
	}
}

func TestSearchCommand(t *testing.T) {
	path := seededBankPath(t)
	if err := run([]string{"search", "-bank", path, "-keyword", "demo", "-limit", "5"}); err != nil {
		t.Errorf("search: %v", err)
	}
	if err := run([]string{"search", "-bank", path, "-style", "TrueFalse"}); err != nil {
		t.Errorf("style search: %v", err)
	}
	if err := run([]string{"search", "-bank", path, "-level", "C"}); err != nil {
		t.Errorf("level search: %v", err)
	}
	if err := run([]string{"search", "-bank", path, "-style", "Oral"}); err == nil {
		t.Error("bad style should fail")
	}
	if err := run([]string{"search", "-bank", path, "-level", "Z"}); err == nil {
		t.Error("bad level should fail")
	}
	if err := run([]string{"search", "-bank", filepath.Join(t.TempDir(), "nope.json")}); err == nil {
		t.Error("missing bank should fail")
	}
}

func TestAnalyzeCommand(t *testing.T) {
	path := seededBankPath(t)
	if err := run([]string{"analyze", "-bank", path, "-exam", "final",
		"-class", "44", "-seed", "3", "-concepts", "3", "-apply"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	// -apply persisted measured indices.
	store, err := bank.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := store.Problem("q001")
	if err != nil {
		t.Fatal(err)
	}
	if p.Difficulty < 0 {
		t.Error("analyze -apply did not persist measurements")
	}
	if err := run([]string{"analyze", "-bank", path, "-exam", "ghost"}); err == nil {
		t.Error("unknown exam should fail")
	}
}

func TestCoverageCommand(t *testing.T) {
	path := seededBankPath(t)
	if err := run([]string{"coverage", "-bank", path, "-exam", "final", "-concepts", "3"}); err != nil {
		t.Errorf("coverage: %v", err)
	}
}

func TestFeedbackAndStatsCommands(t *testing.T) {
	path := seededBankPath(t)
	if err := run([]string{"feedback", "-bank", path, "-exam", "final",
		"-class", "24", "-students", "2"}); err != nil {
		t.Errorf("feedback: %v", err)
	}
	if err := run([]string{"stats", "-bank", path, "-exam", "final", "-class", "40"}); err != nil {
		t.Errorf("stats: %v", err)
	}
}

func TestExportCommands(t *testing.T) {
	path := seededBankPath(t)
	dir := t.TempDir()
	zipPath := filepath.Join(dir, "exam.zip")
	if err := run([]string{"export-scorm", "-bank", path, "-exam", "final", "-out", zipPath}); err != nil {
		t.Fatalf("export-scorm: %v", err)
	}
	qtiPath := filepath.Join(dir, "exam.xml")
	if err := run([]string{"export-qti", "-bank", path, "-exam", "final", "-out", qtiPath}); err != nil {
		t.Fatalf("export-qti: %v", err)
	}
	htmlPath := filepath.Join(dir, "exam.html")
	if err := run([]string{"preview", "-bank", path, "-exam", "final", "-out", htmlPath}); err != nil {
		t.Fatalf("preview: %v", err)
	}
	for _, f := range []string{zipPath, qtiPath, htmlPath} {
		if !fileExists(f) {
			t.Errorf("output %s not written", f)
		}
	}
}

func TestAnalyzeFileCommand(t *testing.T) {
	path := seededBankPath(t)
	pipe, err := core.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.RunSimulated("final", core.SimulationConfig{
		Class: simulate.PopulationConfig{N: 20, SD: 1, Seed: 2},
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	resultPath := filepath.Join(t.TempDir(), "result.json")
	if err := analysis.SaveResult(resultPath, res); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze-file", "-result", resultPath}); err != nil {
		t.Errorf("analyze-file: %v", err)
	}
	if err := run([]string{"analyze-file", "-result",
		filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("missing result should fail")
	}
}

func TestHistoryCommand(t *testing.T) {
	path := seededBankPath(t)
	if err := run([]string{"history", "-bank", path, "-exam", "final",
		"-runs", "2", "-class", "30"}); err != nil {
		t.Errorf("history: %v", err)
	}
	if err := run([]string{"history", "-bank", path, "-exam", "final",
		"-runs", "2", "-class", "30", "-flagged"}); err != nil {
		t.Errorf("history -flagged: %v", err)
	}
	if err := run([]string{"history", "-bank", path, "-runs", "0"}); err == nil {
		t.Error("zero runs should fail")
	}
	if err := run([]string{"history", "-bank", path, "-exam", "ghost"}); err == nil {
		t.Error("unknown exam should fail")
	}
}

func TestVersionAndHelp(t *testing.T) {
	if err := run([]string{"version"}); err != nil {
		t.Errorf("version: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestCalibrateCommand: seed a bank, init parameters, collect a simulated
// sitting, and run the offline calibration feedback pass over it.
func TestCalibrateCommand(t *testing.T) {
	path := seededBankPath(t)
	// First pass seeds parameters (the seeded bank has none).
	if err := run([]string{"calibrate", "-bank", path, "-exam", "final", "-a", "1.6"}); err != nil {
		t.Fatalf("calibrate init: %v", err)
	}
	store, err := bank.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Exam("final")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ItemParams) != 30 {
		t.Fatalf("seeded params = %d, want 30", len(rec.ItemParams))
	}

	// Collect a sitting and calibrate from it.
	pipe, err := core.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.RunSimulated("final", core.SimulationConfig{
		Class: simulate.PopulationConfig{N: 80, Mean: 1.0, SD: 1, Seed: 5},
		Seed:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	resultPath := filepath.Join(t.TempDir(), "result.json")
	if err := analysis.SaveResult(resultPath, res); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"calibrate", "-bank", path, "-exam", "final",
		"-results", resultPath, "-min", "20"}); err != nil {
		t.Fatalf("calibrate from results: %v", err)
	}
	after, err := bank.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := after.Exam("final")
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for pid := range rec2.ItemParams {
		if rec2.ItemParams[pid].B != rec.ItemParams[pid].B {
			changed++
		}
	}
	if changed == 0 {
		t.Error("calibration changed no difficulties")
	}
}
