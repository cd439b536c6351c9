//go:build !race

// The race detector slows the suite roughly eightfold, and
// TestSmokeFullSuite already runs every experiment under -race, so this
// pin runs in plain builds only.

package experiments

import (
	"fmt"
	"testing"
)

// TestSuiteVerdictsHold is the paper's bounds as a standing check: every
// experiment of the paper suite and the extension suite, at scale 0.25
// with its default replicate count, over a fixed seed set. No experiment
// may return FAIL. WARNs are finite-size readings the verdict rules allow
// (EXPERIMENTS.md records which rule each one trips), so they are logged,
// not failed.
func TestSuiteVerdictsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("verdict pin skipped in -short mode")
	}
	suite := append(All(), Extensions()...)
	for seed := uint64(1); seed <= 3; seed++ {
		for _, e := range suite {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, e.ID), func(t *testing.T) {
				res, err := e.Run(Params{Scale: 0.25, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				switch res.Verdict {
				case VerdictPass:
				case VerdictWarn:
					t.Logf("%s WARN at seed %d: %v", e.ID, seed, res.Findings)
				default:
					t.Errorf("%s returned %s at seed %d:\n%s", e.ID, res.Verdict, seed, res.Text())
				}
			})
		}
	}
}
