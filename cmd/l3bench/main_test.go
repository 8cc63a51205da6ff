package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run([]string{"-fig", "3"}); err == nil {
		t.Fatal("figure 3 (diagram) should explain it has no data")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunFig4(t *testing.T) {
	if err := run([]string{"-fig", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig1CSV(t *testing.T) {
	if err := run([]string{"-fig", "1", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosBadSchedule(t *testing.T) {
	if err := run([]string{"-chaos", "partition@nope"}); err == nil {
		t.Fatal("malformed schedule accepted")
	}
	if err := run([]string{"-chaos", "meteor@10s"}); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
}

func TestRunChaosCustom(t *testing.T) {
	err := run([]string{
		"-chaos", "partition@48s+24s:cluster-1/cluster-2",
		"-scenario", "scenario-1", "-quick",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunProfilesWriteFiles checks -cpuprofile and -memprofile produce
// non-empty pprof files around an ordinary figure run.
func TestRunProfilesWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-fig", "6", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
