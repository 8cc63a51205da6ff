package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunShortTrace(t *testing.T) {
	if err := run([]string{"-duration", "20s", "-rps", "50", "-top", "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultOutputByteIdentical pins the default run's stdout: the DSB
// world under round-robin, with no controller and no drain, whose backends
// draw their variation series as the figures' worlds do.
func TestDefaultOutputByteIdentical(t *testing.T) {
	old := stdout
	defer func() { stdout = old }()
	var buf bytes.Buffer
	stdout = &buf
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
	const golden = "2d78c9b91400515045d60099fb087bb6ac0bdb13d5b61cb2358b866a4572a49a"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("stdout sha256 = %s, want golden %s (output changed)", got, golden)
	}
}
