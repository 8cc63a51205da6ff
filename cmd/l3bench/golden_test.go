package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// captureStdout runs the CLI with stdout redirected into a buffer (stderr
// stays silenced by TestMain: timings are nondeterministic by design).
func captureStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	old := stdout
	defer func() { stdout = old }()
	var buf bytes.Buffer
	stdout = &buf
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.Bytes()
}

// TestFigureOutputByteIdentical pins figure stdout two ways: serial and
// fanned-out runs must produce the same bytes (the -parallel guarantee), and
// those bytes must hash to the golden values captured before the fast-path
// refactor — proving the route-cached metric handles, pooled request state,
// atomic series and event recycling changed no observable result.
func TestFigureOutputByteIdentical(t *testing.T) {
	goldens := []struct {
		name   string
		args   []string
		sha256 string
	}{
		// Figures 1 and 2 are the motivation traces and Figure 4 the rate
		// control's curves: no run of the mesh, under 0.1 s each.
		{"fig1", []string{"-fig", "1"},
			"9ac30254573b491e49619bb234c480600b6e366fece5a5e3f7aa7f15a70330bd"},
		{"fig2", []string{"-fig", "2"},
			"17323650888dbed372da04f16af619e65ca8a879c7e834dc6d0731496dd7dd19"},
		{"fig4", []string{"-fig", "4"},
			"d526b0e1e645adddca0e81ccf0031650b70a14943d995dae763ab020365fe47f"},
		{"fig6", []string{"-fig", "6"},
			"019743b524369cce596ee98dbcd267e9e41b2262935e979dbf235a9361b8fe51"},
		{"fig7-quick", []string{"-fig", "7", "-quick"},
			"83bd3f5b77fc79643b8f6f5a8cbb0b6b144b93c707f61299207c3c659b358865"},
		{"fig8-quick", []string{"-fig", "8", "-quick"},
			"d4703cff1b3f4d4eacc02daeb5a4af6c297fca977231e87c6c3e3618d9cc7aca"},
		{"fig9-quick", []string{"-fig", "9", "-quick"},
			"6a52b5105f2a82b6565ec0addefdc8e69916f2144cc9101c7071cc402da7cbc1"},
		// Figure 9 at full length: its 5-minute run reads 360 s of each
		// backend's variation series, where the quick run reads its
		// first seconds only.
		{"fig9", []string{"-fig", "9"},
			"09d10e27a52dbb103071056588ccdbf275d61a4c0e1a50155b8b83337144844a"},
		{"fig11-quick", []string{"-fig", "11", "-quick"},
			"4b0aac804323fcc8af7b6c901865ee97435a64d49155680d817a33b1b9c5cc6d"},
		{"fig12-quick", []string{"-fig", "12", "-quick"},
			"5cb1bbb764ba9412c2f9aa6ab7a6f7588c75a22617141ef80bff2fab03d1cc4a"},
		{"chaos-partition", []string{
			"-chaos", "partition@48s+24s:cluster-1/cluster-2",
			"-scenario", "scenario-1", "-quick"},
			"b55805fa750b83df9978f71a6415b7b58363b2af3477a140b8cdd02dc71d09ac"},
		{"C1-quick", []string{"-fig", "C1", "-quick"},
			"670ec94202c375bbc0c3dcd0444563992a2dc3ebb33dc3bd0e8f0c230e0ec348"},
		{"C2-quick", []string{"-fig", "C2", "-quick"},
			"9d0bfaa46443fcf9b57fdc0371bd83237a54a0ef1f392e04e62422ac1024f2bc"},
		{"fig10-quick", []string{"-fig", "10", "-quick"},
			"fe841c542725856b8a05dfba01551793fa818d44d1cf7c755dc20ba259c86099"},
		{"R1-quick", []string{"-fig", "R1", "-quick"},
			"001ec69613d1f86ac48ba6a95488da4cfd2b811a243cf1e74fdcebf471e20fe3"},
		{"R2-quick", []string{"-fig", "R2", "-quick"},
			"a6f6556b5dabc9ade950b1b4456f7fe336123655684c105f4d0873790fa50eb9"},
		{"R3-quick", []string{"-fig", "R3", "-quick"},
			"42c52183884b73f24702d42a13c2b52117be70f615af8295e926d8d5b443ac9c"},
		{"G1-quick", []string{"-fig", "G1", "-quick"},
			"e12cef1d57bd3b5fe181580d8cff1a547c3e6648d197e4510176585910f56cd0"},
		{"G2-quick", []string{"-fig", "G2", "-quick"},
			"0f6f636a8cbc000b06bcfa220ca5d61bb22bf4df91f4b3e0822efc1ed2b03773"},
		// A custom schedule through the guarded control plane: metric
		// garbage injected while hygiene, degraded modes and the write gate
		// are on.
		{"guard-custom", []string{
			"-chaos", "garbage@48s+24s:nan",
			"-scenario", "scenario-1", "-quick", "-guard"},
			"02abaca04a3e91480d0be7f750e90cdb571a8fecffe557d27d135649a61ba31a"},
		{"chaos-resilience", []string{
			"-chaos", "saturate@48s+24s:api-cluster-1/0.25",
			"-scenario", "scenario-1", "-quick",
			"-resilience", "deadline=1s,retries=3,budget=0.2,breaker=5"},
			"97536c8d257edc0592b58fa5263127bf68e9a31e5de35b18469bbb8f44987346"},
		{"O1-quick", []string{"-fig", "O1", "-quick"},
			"b7f7796a91444a951bbeb1d13ad33c0d1996cc23005e3a5c855200591b71aae1"},
		{"O2-quick", []string{"-fig", "O2", "-quick"},
			"90d5e81e3ed38eaf4fc4076ef7a922342e4acd7b4c6dacaf216bb6d990300534"},
		// A disabled admission layer must be a pure pass-through: the same
		// run with '-overload off' hashes to the chaos-resilience golden
		// above, byte for byte.
		{"chaos-resilience-overload-off", []string{
			"-chaos", "saturate@48s+24s:api-cluster-1/0.25",
			"-scenario", "scenario-1", "-quick",
			"-resilience", "deadline=1s,retries=3,budget=0.2,breaker=5",
			"-overload", "off"},
			"97536c8d257edc0592b58fa5263127bf68e9a31e5de35b18469bbb8f44987346"},
		// Captured when the retry-penalty ablation still ran on the
		// standalone retry client: folding it into a resilience policy
		// changed no byte of the suite.
		{"ablations-quick", []string{"-fig", "ablations", "-quick"},
			"5dfde8abbcb3bccc99c92bad33973312ed5de822ee55d0d8d8ad405b7cf6f1a6"},
	}
	for _, g := range goldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			serial := captureStdout(t, append([]string{"-parallel", "1"}, g.args...)...)
			fanned := captureStdout(t, append([]string{"-parallel", "8"}, g.args...)...)
			if !bytes.Equal(serial, fanned) {
				t.Fatal("stdout differs between -parallel 1 and -parallel 8")
			}
			sum := sha256.Sum256(serial)
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Fatalf("stdout sha256 = %s, want golden %s (output changed)", got, g.sha256)
			}
		})
	}
}
