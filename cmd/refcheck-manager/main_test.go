package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfExecMatchesRefcheck builds the real refcheck and refcheck-manager
// binaries and requires the manager to print exactly what refcheck -demo
// prints, at two shard counts, with one worker crashing on its round-1
// shard and with one crashing between the rounds. The manager's only worker path is
// re-executing its own binary with -worker, so this is the end-to-end check
// of that path.
func TestSelfExecMatchesRefcheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the refcheck and refcheck-manager binaries")
	}
	dir := t.TempDir()
	bin := map[string]string{}
	for _, name := range []string{"refcheck", "refcheck-manager"} {
		bin[name] = filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin[name], "./cmd/"+name)
		cmd.Dir = filepath.Join("..", "..")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	run := func(name string, args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin[name], args...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, errb.String())
		}
		return out.String(), errb.String()
	}

	want, _ := run("refcheck", "-demo")
	for _, tc := range []struct {
		args   []string
		deaths string // the -v worker line the run must print
	}{
		{[]string{"-shards", "2", "-demo", "-v"}, "workers: 0 deaths, 0 shards inline"},
		{[]string{"-shards", "3", "-kill-worker-after", "1", "-demo", "-v"}, "workers: 1 deaths, 1 shards inline"},
		// A worker's 2nd work frame is the round-2 request: a death between
		// the rounds.
		{[]string{"-shards", "2", "-kill-worker-after", "2", "-demo", "-v"}, "workers: 1 deaths, 1 shards inline"},
	} {
		got, stderr := run("refcheck-manager", tc.args...)
		if got != want {
			t.Errorf("refcheck-manager %s differs from refcheck -demo", strings.Join(tc.args, " "))
		}
		if !strings.Contains(stderr, tc.deaths) {
			t.Errorf("refcheck-manager %s: stderr lacks %q:\n%s", strings.Join(tc.args, " "), tc.deaths, stderr)
		}
	}
}
