package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The //asm: annotation grammar (see docs/ANALYSIS.md):
//
//	//asm:hotpath                 — marks a function as an allocation-free
//	                                hot kernel; the hotpath analyzer checks
//	                                every function so marked.
//	//asm:<verb>-ok <reason>      — suppresses one analyzer's findings on
//	                                the next (or same) source line, or on
//	                                the whole function when written in a
//	                                function's doc comment. The reason is
//	                                mandatory: a bare suppression is itself
//	                                a diagnostic.
//
// Verbs: nondet (detrand), errclass (errclass), lock (lockcheck),
// hotpath (hotpath).
//
// Field comments of the form "guarded by <mu>" are not //asm:
// annotations — they are the lock-discipline declaration the lockcheck
// analyzer enforces — but they share the "annotations are contracts"
// philosophy: writing one makes the machine hold you to it.

// markerVerbs are annotations that declare a property rather than
// suppress a finding.
var markerVerbs = map[string]bool{
	"hotpath": true,
}

// suppressVerbs are the <verb> halves of valid "<verb>-ok" suppressions.
var suppressVerbs = map[string]bool{
	"nondet":   true,
	"errclass": true,
	"lock":     true,
	"hotpath":  true,
}

var asmComment = regexp.MustCompile(`^//asm:([a-z-]+)(?:\s+(.*))?$`)

// Annotation is one parsed //asm: comment.
type Annotation struct {
	Verb   string // "hotpath", "nondet-ok", ...
	Reason string
	Pos    token.Position
	From   string // file name the annotation lives in
	// lines covered by a suppression: the comment's own line and, for
	// lead comments, every line through the end of the annotated node.
	fromLine, toLine int
	used             bool
}

// Annotations indexes a package's //asm: comments.
type Annotations struct {
	fset *token.FileSet
	// suppressions by verb, in file order.
	byVerb map[string][]*Annotation
	// hotpath-marked function declarations.
	hotpath map[*ast.FuncDecl]bool
}

// ParseAnnotations scans the package's comments. It returns the parsed
// annotations plus diagnostics for malformed ones: unknown verbs, and
// suppressions with no reason.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) (*Annotations, []Diagnostic) {
	an := &Annotations{
		fset:    fset,
		byVerb:  make(map[string][]*Annotation),
		hotpath: make(map[*ast.FuncDecl]bool),
	}
	var diags []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Analyzer: "asmannot", Pos: fset.Position(pos), Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		// Map every comment to the function whose doc it is, so a
		// function-level suppression covers the whole body.
		funcDocSpan := make(map[*ast.CommentGroup][2]int) // doc group -> [start,end] lines
		funcByDoc := make(map[*ast.CommentGroup]*ast.FuncDecl)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			funcDocSpan[fd.Doc] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
			funcByDoc[fd.Doc] = fd
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := asmComment.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//asm:") {
						bad(c.Pos(), "malformed //asm: annotation %q", c.Text)
					}
					continue
				}
				verb, reason := m[1], strings.TrimSpace(m[2])
				pos := fset.Position(c.Pos())
				switch {
				case markerVerbs[verb]:
					if fd, ok := funcByDoc[cg]; ok {
						an.hotpath[fd] = true
					} else {
						bad(c.Pos(), "//asm:%s must appear in a function's doc comment", verb)
					}
				case strings.HasSuffix(verb, "-ok") && suppressVerbs[strings.TrimSuffix(verb, "-ok")]:
					if reason == "" {
						bad(c.Pos(), "//asm:%s needs a reason: suppressions document why the contract does not apply", verb)
						continue
					}
					a := &Annotation{Verb: verb, Reason: reason, Pos: pos, From: pos.Filename}
					if span, ok := funcDocSpan[cg]; ok {
						a.fromLine, a.toLine = span[0], span[1]
					} else {
						// A trailing comment covers its own line; a lead
						// comment covers the line(s) below through the
						// next line (the annotated statement's first line).
						a.fromLine, a.toLine = pos.Line, pos.Line+1
					}
					base := strings.TrimSuffix(verb, "-ok")
					an.byVerb[base] = append(an.byVerb[base], a)
				default:
					bad(c.Pos(), "unknown //asm: verb %q (known: hotpath, nondet-ok, errclass-ok, lock-ok, hotpath-ok)", verb)
				}
			}
		}
	}
	return an, diags
}

// Hotpath reports whether fd carries the //asm:hotpath marker.
func (an *Annotations) Hotpath(fd *ast.FuncDecl) bool { return an.hotpath[fd] }

// HotpathFuncs returns every marked function declaration.
func (an *Annotations) HotpathFuncs() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for fd := range an.hotpath {
		out = append(out, fd)
	}
	return out
}

// Suppresses reports whether a <verb>-ok annotation covers pos, and
// marks the covering annotation used.
func (an *Annotations) Suppresses(verb string, pos token.Position) bool {
	for _, a := range an.byVerb[verb] {
		if a.From == pos.Filename && pos.Line >= a.fromLine && pos.Line <= a.toLine {
			a.used = true
			return true
		}
	}
	return false
}

// UnusedSuppressions returns a diagnostic for every suppression whose
// analyzer ran but which suppressed nothing — stale escapes rot into
// blanket permissions, so they fail the build until deleted.
func (an *Annotations) UnusedSuppressions(ran []*Analyzer) []Diagnostic {
	active := make(map[string]bool, len(ran))
	for _, a := range ran {
		if a.Verb != "" {
			active[a.Verb] = true
		}
	}
	var out []Diagnostic
	for verb, list := range an.byVerb {
		if !active[verb] {
			continue
		}
		for _, a := range list {
			if !a.used {
				out = append(out, Diagnostic{
					Analyzer: "asmannot",
					Pos:      token.Position{Filename: a.From, Line: a.Pos.Line, Column: a.Pos.Column},
					Message:  fmt.Sprintf("stale suppression //asm:%s: nothing on the annotated line triggers %s anymore — delete it", a.Verb, verb),
				})
			}
		}
	}
	return out
}
