// Command paperrepro runs the complete validation suite E1-E17 at full
// scale and regenerates the Markdown experiment report quoted in
// EXPERIMENTS.md, plus per-experiment CSVs and SVG figures.
//
// Usage:
//
//	paperrepro -out results/ [-scale 1.0] [-seed 1]
//
// Expect a few minutes of CPU time at full scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mobilenet/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	var (
		outDir = fs.String("out", "results", "output directory")
		scale  = fs.Float64("scale", 1.0, "problem-size scale in (0,1]")
		reps   = fs.Int("reps", 0, "replicates per point (0 = defaults)")
		seed   = fs.Uint64("seed", 1, "master seed")
		quiet  = fs.Bool("q", false, "suppress progress logging")
		ext    = fs.Bool("ext", true, "also run the extension suite X1-X8")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	report, err := os.Create(filepath.Join(*outDir, "report.md"))
	if err != nil {
		return err
	}
	defer report.Close()

	fmt.Fprintf(report, "# Paper reproduction report\n\n")
	fmt.Fprintf(report, "Suite run at scale %.2f, seed %d, %s.\n\n", *scale, *seed,
		time.Now().Format("2006-01-02 15:04"))

	params := experiments.Params{Scale: *scale, Reps: *reps, Seed: *seed}
	if !*quiet {
		params.Log = os.Stderr
	}

	suite := experiments.All()
	if *ext {
		suite = append(suite, experiments.Extensions()...)
	}
	summary := make([]string, 0, len(suite))
	failures := 0
	for _, e := range suite {
		start := time.Now()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "--- running %s: %s\n", e.ID, e.Title)
		}
		res, err := e.Run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := res.WriteMarkdown(report); err != nil {
			return err
		}
		if err := res.WriteArtifacts(*outDir); err != nil {
			return err
		}
		line := fmt.Sprintf("%-4s %-4s %-45s (%.1fs)", res.ID, res.Verdict, e.Title, time.Since(start).Seconds())
		summary = append(summary, line)
		if !*quiet {
			fmt.Fprintln(os.Stderr, line)
		}
		if res.Verdict == experiments.VerdictFail {
			failures++
		}
	}

	fmt.Fprintf(report, "## Summary\n\n```\n%s\n```\n", strings.Join(summary, "\n"))
	fmt.Println(strings.Join(summary, "\n"))
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) FAILED", failures)
	}
	fmt.Printf("\nreport written to %s\n", filepath.Join(*outDir, "report.md"))
	return nil
}
