// Kernelaudit: the full §6 pipeline over the synthetic kernel tree —
// generate the corpus, build the code property graphs (with lexer-parsing
// discovery), run all nine checkers, confirm each report dynamically with
// refsim, and print the Table 4 summary.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/cpp"
	"repro/internal/study"
)

func main() {
	c := corpus.Generate(corpus.Spec{Seed: 1})
	fmt.Printf("generated synthetic kernel: %d files, %.1f KLOC, %d planned bugs, %d FP baits\n",
		len(c.Files), c.KLOC(), len(c.Planned), len(c.Baits))

	var sources []cpg.Source
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	unit := (&cpg.Builder{Headers: cpp.MapFiles(c.Headers)}).Build(sources)
	fmt.Printf("lexer parsing discovered %d refcounted structs, %d wrapper APIs, %d smartloops\n",
		len(unit.DiscoveredStructs), len(unit.DiscoveredAPIs), len(unit.DiscoveredLoops))

	reports := core.NewEngine().CheckUnit(unit)
	fmt.Printf("checkers produced %d reports\n\n", len(reports))

	nb := study.EvaluateNewBugs(c, reports, 0)
	rows := nb.Table4()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "subsystem\tnew bugs\tleak\tuaf\tnpd\tcfm\tpr\tnr\tfp")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Subsystem, r.NewBugs, r.Leak, r.UAF, r.NPD, r.CFM, r.PR, r.NR, r.FP)
	}
	t := study.Total(rows)
	fmt.Fprintf(w, "Total\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
		t.NewBugs, t.Leak, t.UAF, t.NPD, t.CFM, t.PR, t.NR, t.FP)
	w.Flush()

	if len(nb.Missed) > 0 {
		fmt.Printf("\nWARNING: %d planned bugs were missed\n", len(nb.Missed))
	}
	fmt.Println("\nsample confirmed reports:")
	shown := 0
	for _, b := range nb.Bugs {
		if b.Status != study.CFM || shown >= 3 {
			continue
		}
		shown++
		fmt.Printf("  [%s] %s\n      oracle: %s\n", b.Status, b.Report.String(), b.Verdict.Detail)
	}
	fmt.Println("\nsample rejected (pinned UAD) reports:")
	for _, b := range nb.Bugs {
		if b.Status != study.PR {
			continue
		}
		fmt.Printf("  [%s] %s\n      oracle: %s\n", b.Status, b.Report.String(), b.Verdict.Detail)
	}
}
