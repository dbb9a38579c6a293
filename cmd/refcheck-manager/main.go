// Command refcheck-manager runs the refcheck analysis across multiple worker
// processes and prints exactly what a single-process `refcheck` run would —
// byte-identical reports and summary at any -shards count, even when workers
// die (a dead worker's shard runs in the manager; see internal/manager).
//
// Usage:
//
//	refcheck-manager [-shards N] [-json] [-pattern P4] DIR...
//	refcheck-manager [-shards N] -demo
//
// With no DIR arguments, -demo is implied. Workers are spawned by
// re-executing this binary with -worker. With -cache, every worker opens the
// shared tiered cache and serves per-file front-end, facts and report
// entries from it, so a second manager run over the same tree skips
// preprocessing and checking file by file. -v prints the worker and cache
// lines plus the run's phase and counter summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/render"
)

func main() {
	var opts cliopts.Opts
	opts.Register(flag.CommandLine, cliopts.Demo|cliopts.Render|cliopts.Workers|cliopts.Checkers|cliopts.Cache|cliopts.Verbose)
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "number of worker processes, one shard each (fewer for fewer files); output is identical at any setting")
	killAfter := flag.Int("kill-worker-after", 0, "fault injection: make the first worker crash after receiving its Nth work frame — 1 its round-1 shard, 2 the round-2 request (output must be unchanged)")
	workerMode := flag.Bool("worker", false, "run as an analysis worker on stdin/stdout")
	workerExitAfter := flag.Int("worker-exit-after", 0, "with -worker: crash after receiving the Nth work frame (1 the round-1 shard, 2 the round-2 request)")
	flag.Parse()

	if *workerMode {
		err := manager.Worker(os.Stdin, os.Stdout, manager.WorkerOpts{ExitAfterShards: *workerExitAfter})
		if err != nil {
			fmt.Fprintf(os.Stderr, "refcheck-manager: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sources, headers, err := opts.Sources(flag.Args(), true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "refcheck-manager: %v\n", err)
		os.Exit(1)
	}

	selected, err := opts.Selected()
	if err != nil {
		fmt.Fprintf(os.Stderr, "refcheck-manager: %v\n", err)
		fmt.Fprintln(os.Stderr, "usage: refcheck-manager -checkers P1,P4 ...")
		os.Exit(2)
	}

	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "refcheck-manager: %v\n", err)
		os.Exit(1)
	}
	cfg := manager.Config{
		Procs:     *shards,
		WorkerCmd: []string{bin, "-worker"},
		CacheDir:  opts.CacheDir,
		CacheMem:  opts.CacheMem,
		Options:   core.Options{Workers: opts.Workers, Checkers: selected},
	}
	if *killAfter > 0 {
		dying := []string{bin, "-worker", "-worker-exit-after", fmt.Sprint(*killAfter)}
		cfg.WorkerCmdFor = func(slot int) []string {
			if slot == 0 {
				return dying
			}
			return cfg.WorkerCmd
		}
	}
	tr := opts.Trace("refcheck-manager")
	cfg.Trace = tr

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	run, err := manager.Run(ctx, cfg, sources, headers)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, core.ErrUnknownPattern):
			fmt.Fprintf(os.Stderr, "refcheck-manager: %v\n", err)
			fmt.Fprintln(os.Stderr, "usage: refcheck-manager -checkers P1,P4 ...")
			os.Exit(2)
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "refcheck-manager: interrupted")
			os.Exit(130)
		default:
			fmt.Fprintf(os.Stderr, "refcheck-manager: %v\n", err)
			os.Exit(1)
		}
	}

	if opts.Verbose {
		stats := tr.Reg().Snapshot()
		fmt.Fprintf(os.Stderr, "refcheck-manager: analyzed %d files in %v (%.1f files/sec, shards=%d)\n",
			len(sources), elapsed.Round(time.Millisecond),
			float64(len(sources))/elapsed.Seconds(), *shards)
		fmt.Fprintf(os.Stderr, "refcheck-manager: workers: %d deaths, %d shards inline\n",
			stats.Counters["manager.worker.deaths"], stats.Counters["manager.shard.inline"])
		if opts.CacheDir != "" {
			fmt.Fprintf(os.Stderr, "refcheck-manager: front-end cache: %d hits, %d misses across workers\n",
				stats.Counters["manager.frontend.hit"], stats.Counters["manager.frontend.miss"])
			fmt.Fprintf(os.Stderr, "refcheck-manager: facts: %d hits, %d misses; reports: %d hits, %d misses across workers\n",
				stats.Counters["manager.facts.hit"], stats.Counters["manager.facts.miss"],
				stats.Counters["manager.reports.hit"], stats.Counters["manager.reports.miss"])
		}
	}
	opts.Export("refcheck-manager", tr)

	if _, err := render.Output(os.Stdout, run.Reports, run.Summary, opts.Pattern, opts.JSON); err != nil {
		fmt.Fprintf(os.Stderr, "refcheck-manager: %v\n", err)
		os.Exit(1)
	}
}
