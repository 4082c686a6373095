package main

import (
	"strings"
	"testing"
)

func TestProfilePrintsEveryStep(t *testing.T) {
	var out strings.Builder
	if err := profile(&out, "mini-vgg", "channel-pruning", 2, 3, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "profile mini-vgg/channel-pruning: batch 2, 3 runs") {
		t.Fatalf("header = %q", lines[0])
	}
	// Header, column titles, one row per plan step (mini-vgg compiles
	// 47 steps: its Flatten is a view), and the sum row.
	if len(lines) != 2+47+1 {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), 2+47+1, out.String())
	}
	if f := strings.Fields(lines[2]); f[0] != "conv1" || f[1] != "direct" || f[2] == "0" {
		t.Fatalf("first step row = %q, want conv1 with algo direct and its MACs", lines[2])
	}
	if f := strings.Fields(lines[len(lines)-1]); f[0] != "sum" {
		t.Fatalf("last row = %q, want the sum", lines[len(lines)-1])
	}
	for _, bad := range [][2]string{{"mini-vgg", "bogus"}, {"no-such-model", "plain"}} {
		if err := profile(&out, bad[0], bad[1], 1, 1, 1); err == nil {
			t.Errorf("profile(%s, %s) succeeded, want an error", bad[0], bad[1])
		}
	}
}
