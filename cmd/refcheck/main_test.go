package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWatchWritesCPUProfile builds refcheck and runs a two-run watch with
// -cpuprofile: the profile must cover the watcher, so the file exists and
// is not empty once the watcher exits.
func TestWatchWritesCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the refcheck binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refcheck")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tree := filepath.Join(dir, "tree")
	src := filepath.Join(tree, "a.c")
	if err := os.MkdirAll(tree, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, []byte("int a(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.prof")
	cmd := exec.Command(bin, "-watch", "-watch-runs", "2", "-watch-interval", "10ms",
		"-watch-out", filepath.Join(dir, "out.txt"), "-cpuprofile", prof, tree)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stderr)
	var log []string
	edited := false
	for lines.Scan() {
		log = append(log, lines.Text())
		if !edited && strings.Contains(lines.Text(), "watch: run 1 ") {
			f, err := os.OpenFile(src, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString("/* edit */\n")
			f.Close()
			edited = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("refcheck -watch: %v\n%s", err, strings.Join(log, "\n"))
	}
	info, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("no CPU profile: %v\n%s", err, strings.Join(log, "\n"))
	}
	if info.Size() == 0 {
		t.Fatal("the CPU profile is empty")
	}
}
