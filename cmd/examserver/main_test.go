package main

import (
	"path/filepath"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

func TestRunMissingBank(t *testing.T) {
	if err := run([]string{"-bank", filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("missing bank should fail")
	}
}

func TestRunBankWithoutExams(t *testing.T) {
	store := bank.NewSharded(0)
	p, err := item.NewMultipleChoice("q1", "?", []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Level = cognition.Knowledge
	if err := store.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bank.json")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bank", path}); err == nil {
		t.Error("bank without exams should fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag should fail")
	}
}
