// Command refcheck runs the nine anti-pattern checkers over a C source tree
// and prints the detected refcounting bugs.
//
// Usage:
//
//	refcheck [-json] [-pattern P4] DIR...
//	refcheck -demo
//	refcheck -watch DIR...
//
// DIR arguments are scanned recursively for .c and .h files; -demo checks
// the built-in synthetic kernel corpus instead. -watch re-analyzes the
// directories whenever a source file changes (mtime polling), reusing the
// warm tiered cache so an edit loop costs one file's recompute.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/patch"
	"repro/internal/poc"
	"repro/internal/render"
)

func main() {
	var opts cliopts.Opts
	opts.Register(flag.CommandLine, cliopts.Analysis)
	fixDir := flag.String("fix", "", "write generated fix patches (unified diffs) into this directory")
	pocDir := flag.String("poc", "", "write use-after-decrease proof-of-concept harnesses into this directory")
	apidbPath := flag.String("apidb", "", "JSON knowledge-base extension file (see `refcheck -dump-apidb`)")
	dumpAPIDB := flag.Bool("dump-apidb", false, "print the seeded knowledge base as JSON and exit")
	selftest := flag.Bool("selftest", false, "re-analyze the golden corpus and verify reports and scores against the copies embedded at build time")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after analysis) to this file")
	pprofHTTP := flag.String("pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the lifetime of the run")
	watchMode := flag.Bool("watch", false, "poll DIR... for changes and re-analyze on edit (pairs with -cache for incremental runs)")
	watchInterval := flag.Duration("watch-interval", time.Second, "with -watch: polling interval")
	watchRuns := flag.Int("watch-runs", 0, "with -watch: exit after N analysis runs (0 = run until interrupted)")
	watchOut := flag.String("watch-out", "", "with -watch: write each run's reports atomically to this file instead of stdout")
	flag.Parse()

	if *pprofHTTP != "" {
		go func() {
			if err := http.ListenAndServe(*pprofHTTP, nil); err != nil {
				fmt.Fprintf(os.Stderr, "refcheck: pprof server: %v\n", err)
			}
		}()
	}

	if *dumpAPIDB {
		if err := apidb.New().SaveExtensions(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *selftest {
		// With -json the recomputed scores are printed as the
		// machine-readable quality ledger (scripts/difftest.sh captures it
		// as BENCH_quality.json); either way drift from the embedded golden
		// artifacts is a non-zero exit. A trace may be attached, proving
		// the golden artifacts are identical with observability enabled.
		tr := opts.Trace("refcheck-selftest")
		err := difftest.Selftest(os.Stdout, opts.JSON, tr)
		opts.Export("refcheck", tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *watchMode {
		code := runWatch(&opts, flag.Args(), *apidbPath, *watchInterval, *watchRuns, *watchOut)
		os.Exit(code)
	}

	if !opts.Demo && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: refcheck [-json] [-pattern Pn] DIR... | refcheck -demo")
		os.Exit(2)
	}
	req, cache, err := opts.ToRequest("refcheck", flag.Args(), false)
	if err != nil {
		if errors.Is(err, core.ErrUnknownPattern) {
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			fmt.Fprintln(os.Stderr, "usage: refcheck -checkers P1,P4 ...")
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
		os.Exit(1)
	}

	db, configFP, err := loadAPIDB(*apidbPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
		os.Exit(1)
	}
	req.Options.DB = db
	req.Options.ConfigFP = configFP

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			os.Exit(1)
		}
	}

	// Interrupts cancel the pipeline at the next phase or work-queue
	// boundary: the workers drain, and the partial run is discarded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	run, err := core.Analyze(ctx, req)
	elapsed := time.Since(start)
	req.Trace.Done()
	if err != nil {
		switch {
		case errors.Is(err, core.ErrUnknownPattern):
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			fmt.Fprintln(os.Stderr, "usage: refcheck -checkers P1,P4 ...")
			os.Exit(2)
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "refcheck: interrupted")
			os.Exit(130)
		default:
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			os.Exit(1)
		}
	}
	reports := run.Reports
	if cache != nil {
		// Analyze already flushed its own writes; Close catches anything
		// still pending and surfaces disk-tier failures that silently
		// degraded to misses during the run.
		if err := cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "refcheck: cache flush: %v\n", err)
		}
	}

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	if opts.Verbose {
		fmt.Fprintf(os.Stderr, "refcheck: analyzed %d files in %v (%.1f files/sec, workers=%d)\n",
			len(req.Sources), elapsed.Round(time.Millisecond),
			float64(len(req.Sources))/elapsed.Seconds(), opts.Workers)
		if cache != nil {
			printCacheStats(run, cache)
		}
	}
	opts.Export("refcheck", req.Trace)

	reports = render.FilterPattern(reports, opts.Pattern)

	// All of stdout goes through one buffer (a scale-4 text run is
	// thousands of lines); every exit below flushes it first.
	out := bufio.NewWriter(os.Stdout)
	fail := func(err error) {
		out.Flush()
		fmt.Fprintf(os.Stderr, "refcheck: %v\n", err)
		os.Exit(1)
	}

	if opts.JSON {
		if err := render.WriteJSON(out, reports); err != nil {
			fail(err)
		}
		if err := out.Flush(); err != nil {
			fail(err)
		}
		return
	}

	render.WriteReports(out, reports)

	if *fixDir != "" {
		contentOf := map[string]string{}
		for _, src := range req.Sources {
			contentOf[src.Path] = src.Content
		}
		if err := os.MkdirAll(*fixDir, 0o755); err != nil {
			fail(err)
		}
		written, manual := 0, 0
		for i, r := range reports {
			fx := patch.Generate(contentOf[r.File], r)
			if !fx.OK {
				manual++
				continue
			}
			name := fmt.Sprintf("%04d-%s-%s.patch", i, r.Pattern, r.Function)
			if err := os.WriteFile(filepath.Join(*fixDir, name), []byte(fx.Diff), 0o644); err != nil {
				fail(err)
			}
			written++
		}
		fmt.Fprintf(out, "\nwrote %d patches to %s (%d reports need manual fixes)\n", written, *fixDir, manual)
	}

	if *pocDir != "" {
		if err := os.MkdirAll(*pocDir, 0o755); err != nil {
			fail(err)
		}
		written := 0
		for i, r := range reports {
			if r.Pattern != core.P8 {
				continue
			}
			px := poc.Generate(r)
			if !px.OK {
				fmt.Fprintf(out, "poc: %s: %s\n", r.Function, px.Reason)
				continue
			}
			name := fmt.Sprintf("%04d-poc-%s.c", i, r.Function)
			if err := os.WriteFile(filepath.Join(*pocDir, name), []byte(px.Harness), 0o644); err != nil {
				fail(err)
			}
			written++
		}
		fmt.Fprintf(out, "wrote %d PoC harnesses to %s\n", written, *pocDir)
	}

	render.WriteSummary(out, reports, run.Summary)
	if err := out.Flush(); err != nil {
		fail(err)
	}
}

// loadAPIDB builds the knowledge base, folding an optional -apidb extension
// file into the returned config fingerprint (the extension changes what the
// checkers look for, so it must key the cache).
func loadAPIDB(path string) (*apidb.DB, string, error) {
	db := apidb.New()
	if path == "" {
		return db, "", nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	if err := db.LoadExtensions(strings.NewReader(string(data))); err != nil {
		return nil, "", err
	}
	return db, analysiscache.KeyOf("apidb-ext", string(data)), nil
}

// printCacheStats renders the tiered-cache statistics block of -v.
func printCacheStats(run *core.Run, cache *analysiscache.Cache) {
	if run.Metric("cache.unit.hit") > 0 {
		fmt.Fprintf(os.Stderr, "refcheck: cache: unit hit — skipped analysis of all %d files\n",
			run.Metric("pipeline.files_skipped"))
	} else {
		fmt.Fprintf(os.Stderr, "refcheck: cache: unit miss; facts: %d file hits, %d misses; reports: %d file hits, %d misses; front end: %d hits (%d parses reused), %d misses (%d files skipped preprocessing)\n",
			run.Metric("cache.facts.hit"), run.Metric("cache.facts.miss"),
			run.Metric("cache.reports.hit"), run.Metric("cache.reports.miss"),
			run.Metric("frontend.cache.hit"), run.Metric("frontend.parse.reused"),
			run.Metric("frontend.cache.miss"), run.Metric("frontend.cache.hit"))
	}
	st := cache.Stats()
	fmt.Fprintf(os.Stderr, "refcheck: cache: L1 %d hits, %d misses, %d evictions (%d entries, %.1f MB resident); L2 %d batch flushes (%d entries); single-flight %d led, %d waited\n",
		run.Metric("cache.l1.hit"), run.Metric("cache.l1.miss"), run.Metric("cache.l1.evict"),
		st.L1Entries, float64(st.L1Bytes)/(1<<20),
		run.Metric("cache.l2.batch.flushes"), run.Metric("cache.l2.batch.entries"),
		run.Metric("cache.singleflight.leader"), run.Metric("cache.singleflight.wait"))
}
