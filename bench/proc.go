package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opTimeout bounds one operation; a slower one counts as failed.
const opTimeout = 30 * time.Second

// userHZ is the kernel's clock-tick rate for /proc/<pid>/stat CPU times.
const userHZ = 100

// binaries are the system under test, built from the checkout's source.
type binaries struct {
	refcheck, manager, daemon string
}

// buildBinaries compiles the three commands into dir. It runs before any
// timing starts.
func buildBinaries(ctx context.Context, root, dir string) (binaries, error) {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/refcheck", "./cmd/refcheck-manager", "./cmd/refcheckd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("building the commands: %w", err)
	}
	return binaries{
		refcheck: filepath.Join(dir, "refcheck"),
		manager:  filepath.Join(dir, "refcheck-manager"),
		daemon:   filepath.Join(dir, "refcheckd"),
	}, nil
}

// cliRun is one completed CLI process: wall time, user+sys CPU of the
// process and its reaped children, peak RSS, and standard output.
type cliRun struct {
	ms, cpuMS, rssMB float64
	out              []byte
}

// runCLI runs argv to completion; a non-zero exit or a timeout is an error.
func runCLI(ctx context.Context, argv []string) (cliRun, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return cliRun{}, fmt.Errorf("%s: %v: %s", filepath.Base(argv[0]), err, bytes.TrimSpace(stderr.Bytes()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cliRun{
		ms:    float64(wall) / 1e6,
		cpuMS: float64(cpu) / 1e6,
		rssMB: float64(ru.Maxrss) / 1024, // Linux reports ru_maxrss in KiB
		out:   stdout.Bytes(),
	}, nil
}

// procCPU returns the user+sys CPU a live process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// procMemMB returns a memory field of a live process's /proc status, such
// as VmRSS (resident set now) or VmHWM (its peak), in MB.
func procMemMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s line %q", field, sc.Text())
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// service is a long-lived process under test (refcheckd or refcheck -watch)
// whose standard error is delivered line by line.
type service struct {
	cmd   *exec.Cmd
	lines chan string
	done  chan struct{} // closed once stderr reaches EOF
}

func startService(argv []string) (*service, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Lines are buffered so a chatty process never blocks on a reader that
	// is busy timing an operation; the reader drops nothing.
	s := &service{cmd: cmd, lines: make(chan string, 1024), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer close(s.lines)
		r := bufio.NewReader(stderr)
		for {
			line, err := r.ReadString('\n')
			if line != "" {
				s.lines <- strings.TrimRight(line, "\n")
			}
			if err != nil {
				io.Copy(io.Discard, r)
				return
			}
		}
	}()
	return s, nil
}

// waitLine returns the next stderr line containing want, failing if the
// process exits or the timeout passes first.
func (s *service) waitLine(ctx context.Context, want string, timeout time.Duration) (string, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case line, ok := <-s.lines:
			if !ok {
				return "", fmt.Errorf("%s exited before printing %q", filepath.Base(s.cmd.Path), want)
			}
			if strings.Contains(line, want) {
				return line, nil
			}
		case <-timer.C:
			return "", fmt.Errorf("%s printed no %q within %v", filepath.Base(s.cmd.Path), want, timeout)
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// stop asks the process to drain with SIGTERM, kills it if it has not
// exited after a grace period, and waits for it and its stderr reader.
func (s *service) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		for range s.lines {
		}
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	<-s.done
	_ = s.cmd.Wait()
}
