package analysis

import (
	"fmt"
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// This file is the fixture harness (the analysistest equivalent):
// fixture packages under <root>/src/<importpath>/ carry expectations as
//
//	code() // want "regexp" "second regexp"
//
// comments. CheckFixture runs analyzers over the tree and matches every
// diagnostic against the want on its line; unmatched wants and
// unexpected diagnostics are both failures — so a fixture whose
// analyzer is disabled fails loudly instead of passing vacuously.

type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// CheckFixture loads the fixture tree rooted at root and runs the
// analyzers, returning mismatches.
func CheckFixture(root string, analyzers []*Analyzer) (unmatchedWants []string, unexpected []Diagnostic, err error) {
	prog, err := LoadFixtureTree(root)
	if err != nil {
		return nil, nil, err
	}
	var wants []*wantExpectation
	for _, pkg := range prog.Pkgs {
		for _, f := range append(append([]*ast.File(nil), pkg.Syntax...), pkg.TestSyntax...) {
			ws, werr := collectWants(prog, f)
			if werr != nil {
				return nil, nil, werr
			}
			wants = append(wants, ws...)
		}
	}
	diags := Run(prog, analyzers)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			unmatchedWants = append(unmatchedWants, fmt.Sprintf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw))
		}
	}
	return unmatchedWants, unexpected, nil
}

// RunFixture is the testing wrapper: any mismatch fails the test.
//
//lint:allow unused -- test support: analysis tests
func RunFixture(t *testing.T, root string, analyzers ...*Analyzer) {
	t.Helper()
	unmatched, unexpected, err := CheckFixture(root, analyzers)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", root, err)
	}
	for _, u := range unmatched {
		t.Errorf("%s", u)
	}
	for _, d := range unexpected {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func collectWants(prog *Program, f *ast.File) ([]*wantExpectation, error) {
	var wants []*wantExpectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			idx := strings.Index(c.Text, "want ")
			if idx < 0 || !strings.HasPrefix(c.Text, "//") {
				continue
			}
			rest := strings.TrimSpace(c.Text[idx+len("want "):])
			pos := prog.Fset.Position(c.Pos())
			for rest != "" {
				if rest[0] != '"' {
					return nil, fmt.Errorf("%s:%d: malformed want expectation %q", pos.Filename, pos.Line, c.Text)
				}
				str, remainder, err := cutQuoted(rest)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v in %q", pos.Filename, pos.Line, err, c.Text)
				}
				re, err := regexp.Compile(str)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
				}
				wants = append(wants, &wantExpectation{file: pos.Filename, line: pos.Line, re: re, raw: str})
				rest = strings.TrimSpace(remainder)
			}
		}
	}
	return wants, nil
}

// cutQuoted splits one leading Go-quoted string off rest.
func cutQuoted(rest string) (string, string, error) {
	for i := 1; i < len(rest); i++ {
		if rest[i] == '"' && rest[i-1] != '\\' {
			s, err := strconv.Unquote(rest[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("unquoting %s: %v", rest[:i+1], err)
			}
			return s, rest[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated want string")
}
