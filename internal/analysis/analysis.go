// Package analysis is the asmvet static-analysis framework: a small,
// stdlib-only analogue of golang.org/x/tools/go/analysis (which this
// build environment cannot fetch) that machine-enforces the repo's
// written contracts — the determinism contract, the write-ahead
// invariant's error discipline, the serve layer's lock discipline, and
// the hot-path allocation rules.
//
// An Analyzer inspects one type-checked package (a Pass) and reports
// Diagnostics. The driver (Run) loads packages with internal/analysis/load,
// applies each analyzer where it declares itself applicable, and filters
// diagnostics through the //asm: annotation suppression grammar (see
// annotation.go and docs/ANALYSIS.md). cmd/asmvet is the multichecker
// front end; internal/analysis/analysistest runs analyzers against
// fixture packages with // want expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"asti/internal/analysis/load"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// annotations: a diagnostic from analyzer "detrand" is suppressed by
	// //asm:nondet-ok if Verb is "nondet".
	Name string
	// Verb is the annotation verb (suppression comments are
	// "//asm:<verb>-ok <reason>"). Empty means the analyzer's findings
	// cannot be suppressed.
	Verb string
	// Doc is a one-line description, shown by asmvet -list.
	Doc string
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path. nil means every package.
	AppliesTo func(pkgPath string) bool
	// Run performs the check and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Notes holds the package's parsed //asm: annotations (marker verbs
	// like hotpath as well as suppressions).
	Notes *Annotations

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run applies analyzers to pkgs (skipping each analyzer's out-of-scope
// packages), filters suppressed diagnostics through the //asm: grammar,
// validates the annotations themselves (unknown verbs, missing reasons,
// suppressions that no longer suppress anything), and returns the
// surviving diagnostics sorted by position.
func Run(pkgs []*load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		for _, err := range pkg.TypeErrors {
			return nil, fmt.Errorf("%s: type error: %v", pkg.ImportPath, err)
		}
		notes, diags := ParseAnnotations(pkg.Fset, pkg.Syntax)
		out = append(out, diags...) // malformed/unknown annotations
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Notes:    notes,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diags {
				if a.Verb != "" && notes.Suppresses(a.Verb, d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
		out = append(out, notes.UnusedSuppressions(analyzers)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
