// Command experiments runs experiments from the paper-validation suite
// (E1-E17) and writes tables, ASCII figures and SVGs.
//
// Usage:
//
//	experiments -list
//	experiments -run E3 -scale 0.5
//	experiments -run all -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mobilenet/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		runID   = fs.String("run", "", "experiment ID to run (e.g. E3), or 'all'")
		scale   = fs.Float64("scale", 1.0, "problem-size scale in (0,1]")
		reps    = fs.Int("reps", 0, "replicates per sweep point (0 = experiment default)")
		seed    = fs.Uint64("seed", 1, "master seed")
		outDir  = fs.String("out", "", "directory for CSV/SVG outputs (empty = stdout only)")
		verbose = fs.Bool("v", false, "log per-point progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Title, e.Claim)
		}
		for _, e := range experiments.Extensions() {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	if *runID == "" {
		return fmt.Errorf("nothing to do: pass -list or -run <ID|all|ext>")
	}

	var toRun []experiments.Experiment
	switch {
	case strings.EqualFold(*runID, "all"):
		toRun = experiments.All()
	case strings.EqualFold(*runID, "ext"):
		toRun = experiments.Extensions()
	default:
		e, ok := experiments.Get(*runID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *runID)
		}
		toRun = []experiments.Experiment{e}
	}

	params := experiments.Params{Scale: *scale, Reps: *reps, Seed: *seed}
	if *verbose {
		params.Log = os.Stderr
	}

	failures := 0
	for _, e := range toRun {
		res, err := e.Run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if res.Verdict == experiments.VerdictFail {
			failures++
		}
		if *outDir != "" {
			if err := res.WriteArtifacts(*outDir); err != nil {
				return err
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) returned FAIL verdicts", failures)
	}
	return nil
}
