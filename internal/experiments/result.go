package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mobilenet/internal/plot"
	"mobilenet/internal/tableio"
)

// Result is the output of one experiment run.
type Result struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title is a short human-readable name.
	Title string
	// Claim restates the paper claim under test.
	Claim string
	// Tables holds the numeric results (at least one).
	Tables []*tableio.Table
	// Figures holds optional chart descriptions.
	Figures []plot.Figure
	// Findings holds prose observations (fit exponents, ratios, etc.).
	Findings []string
	// Verdict summarises agreement with the claim.
	Verdict Verdict
}

// AddFinding appends a formatted finding line.
func (r *Result) AddFinding(format string, args ...any) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// WriteText renders the full result in terminal form, including ASCII
// figures.
func (r *Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s [%s]\nClaim: %s\n\n",
		r.ID, r.Title, r.Verdict, r.Claim); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, f := range r.Figures {
		if _, err := io.WriteString(w, f.ASCII(64, 16)); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, finding := range r.Findings {
		if _, err := fmt.Fprintf(w, "- %s\n", finding); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the result as a string.
func (r *Result) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

// WriteMarkdown renders the result as a Markdown section (figures are
// referenced by file name, not embedded; the caller writes SVGs).
func (r *Result) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n**Verdict: %s.** %s\n\n",
		r.ID, r.Title, r.Verdict, r.Claim); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.WriteMarkdown(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, finding := range r.Findings {
		if _, err := fmt.Fprintf(w, "- %s\n", finding); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteArtifacts writes the result's tables as CSV files and its figures
// as SVG files into dir, creating it if needed: e3_table1.csv,
// e3_fig1.svg and so on.
func (r *Result) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	id := strings.ToLower(r.ID)
	for i, table := range r.Tables {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", id, i+1)))
		if err != nil {
			return err
		}
		if err := table.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for i, fig := range r.Figures {
		name := filepath.Join(dir, fmt.Sprintf("%s_fig%d.svg", id, i+1))
		if err := os.WriteFile(name, []byte(fig.SVG(640, 480)), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	// ID is the canonical identifier ("E1" .. "E17").
	ID string
	// Title is a short name for listings.
	Title string
	// Claim restates the paper claim under test.
	Claim string
	// Run executes the experiment.
	Run func(Params) (*Result, error)
}

// newResult seeds a Result with the experiment's metadata.
func (e Experiment) newResult() *Result {
	return &Result{ID: e.ID, Title: e.Title, Claim: e.Claim, Verdict: VerdictPass}
}
