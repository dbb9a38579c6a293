package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/watch"
)

// runWatch is the -watch mode: poll the directories for source changes and
// re-analyze on every edit. The tiered cache handle (when -cache is set)
// stays open across runs, so after the first analysis an edit re-reads,
// re-parses, re-derives the facts of and re-checks exactly the changed
// files — while the rendered output of every run is byte-identical to a
// fresh cold run over the same tree.
func runWatch(opts *cliopts.Opts, dirs []string, apidbPath string, interval time.Duration, maxRuns int, outFile string) int {
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: refcheck -watch DIR...")
		return 2
	}
	selected, err := opts.Selected()
	if err != nil {
		fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
		return 2
	}
	cache, err := opts.OpenCache()
	if err != nil {
		fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
		return 1
	}
	defer func() {
		if cache != nil {
			if err := cache.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "refcheck: cache flush: %v\n", err)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runs := 0
	// tree is the previous run's load: a change tick re-reads only the
	// files the poller reported (see loader.Reload).
	var tree *loader.Tree
	// out holds the rendered output; every run renders into the same
	// storage.
	var out []byte
	runOnce := func(changed []string) error {
		var err error
		tree, err = loader.Reload(tree, dirs, changed)
		if err != nil {
			return err
		}
		// Discovery extends the knowledge base in place, so every run gets
		// a fresh DB — identical inputs must render identical bytes whether
		// this is run 1 or run 100.
		db, configFP, err := loadAPIDB(apidbPath)
		if err != nil {
			return err
		}
		req := core.Request{
			Sources: tree.Sources,
			Headers: tree.Headers,
			Options: core.Options{
				Workers: opts.Workers, Checkers: selected,
				Cache: cache, DB: db, ConfigFP: configFP,
			},
			// Always a real trace (not opts.Trace's conditional): the status
			// line below reads the front-end, parse-reuse, report and facts
			// counters from it.
			Trace: obs.New("refcheck-watch"),
		}
		start := time.Now()
		run, err := core.Analyze(ctx, req)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		runs++

		var nreports int
		out, nreports = render.AppendOutput(out[:0], run.Reports, run.Summary, opts.Pattern, opts.JSON)
		if outFile != "" {
			if err := writeAtomic(outFile, out); err != nil {
				return err
			}
		} else {
			os.Stdout.Write(out)
		}

		what := "initial scan"
		if changed != nil {
			what = fmt.Sprintf("%d files changed", len(changed))
		}
		// A computed run either replayed the observations or reused an
		// earlier run's exchange; a unit-entry hit ran no exchange at all.
		exchange := "skipped"
		switch {
		case run.Metric("exchange.reused") > 0:
			exchange = "reused"
		case run.Metric("exchange.applied") > 0:
			exchange = "applied"
		}
		fmt.Fprintf(os.Stderr, "refcheck: watch: run %d (%s): %d files, %d reports in %v (front end: %d hits (%d parses reused), %d misses; reports: %d hits, %d misses; facts: %d hits, %d misses), exchange: %s\n",
			runs, what, len(tree.Sources), nreports, elapsed.Round(time.Millisecond),
			run.Metric("frontend.cache.hit"), run.Metric("frontend.parse.reused"), run.Metric("frontend.cache.miss"),
			run.Metric("cache.reports.hit"), run.Metric("cache.reports.miss"),
			run.Metric("cache.facts.hit"), run.Metric("cache.facts.miss"), exchange)
		opts.Export("refcheck", req.Trace)
		return nil
	}

	err = watch.Watch(ctx, watch.Config{
		Roots:    dirs,
		Interval: interval,
		MaxRuns:  maxRuns,
		Run:      runOnce,
	})
	switch {
	case err == nil, errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "refcheck: watch: done after %d runs\n", runs)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
		return 1
	}
}

// writeAtomic writes data to path via a same-directory temp file + rename,
// so readers of -watch-out never observe a torn report.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".refcheck-watch-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return os.Rename(tmp.Name(), path)
}
