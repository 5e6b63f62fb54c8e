// Package borrowck enforces the batch-scope borrowing invariant: a
// parameter whose declaration doc carries //simlint:borrowed <name>
// (receiver names work too) is lent to the callee for the duration of
// the call — a decoded trace batch handed to the systems of a
// fan-out replay, a tap-event slice, a cache.Prober snapshot — and the
// callee must not retain it. No stores to struct fields or package
// variables, no capture by goroutine or func literal, no return, no
// channel send.
//
// The check is transitive: passing the value to another module
// function recurses into that callee's treatment of the corresponding
// parameter, and findings report the forwarding chain the way hotpath
// reports call chains. It stops at:
//
//   - callee parameters that are themselves //simlint:borrowed — they
//     are verified at their own declaration, so by induction a
//     borrowed value may be forwarded to one freely;
//   - dynamic calls and out-of-module callees — the same deliberate
//     seams the call graph's static edges draw;
//   - values whose types cannot carry a reference (copied-out structs
//     of scalars, numeric elements): they end the borrow by value.
//
// See callgraph.ParamRetention for the site and alias rules.
package borrowck

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:            "borrowck",
	Doc:             "//simlint:borrowed parameters must not be retained past the call",
	PackagePrefixes: []string{"streamsim/internal"},
	Facts:           callgraph.Facts,
	FactsKey:        callgraph.FactsKey,
	Run:             run,
}

func run(pass *analysis.Pass) error {
	g := callgraph.From(pass)
	if g == nil {
		return fmt.Errorf("borrowck requires call-graph facts")
	}
	c := &checker{g: g, memo: map[frame][]escape{}, active: map[frame]bool{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := g.Decls[fd]
			if fn == nil {
				continue
			}
			for _, idx := range fn.Borrowed {
				for _, e := range c.escapes(fn, idx) {
					report(pass, fn, idx, e)
				}
			}
		}
	}
	return nil
}

// frame is one (function, signature position) retention question.
type frame struct {
	fn    *callgraph.Func
	param int
}

// pathStep is one forward taken from the root toward the retain site.
type pathStep struct {
	pos    token.Pos // call site in the previous function
	callee *callgraph.Func
}

// escape is one way a borrowed value outlives the root call.
type escape struct {
	fn   *callgraph.Func // function containing the site
	site callgraph.RetainSite
	path []pathStep // forwards from the root to fn (empty: site is local)
}

// checker memoizes retention summaries across roots; the active set
// breaks forwarding cycles optimistically, mirroring hotpath's seen
// set (a cycle adds no new sites).
type checker struct {
	g      *callgraph.Graph
	memo   map[frame][]escape
	active map[frame]bool
}

func (c *checker) escapes(fn *callgraph.Func, param int) []escape {
	f := frame{fn, param}
	if out, ok := c.memo[f]; ok {
		return out
	}
	if c.active[f] {
		return nil
	}
	c.active[f] = true
	ret := c.g.ParamRetention(fn, param)
	out := []escape{}
	for _, s := range ret.Sites {
		out = append(out, escape{fn: fn, site: s})
	}
	for _, fw := range ret.Forwards {
		if borrowedAt(fw.Callee, fw.Param) {
			continue // verified at its own declaration
		}
		for _, e := range c.escapes(fw.Callee, fw.Param) {
			path := append([]pathStep{{fw.Pos, fw.Callee}}, e.path...)
			out = append(out, escape{fn: e.fn, site: e.site, path: path})
		}
	}
	delete(c.active, f)
	c.memo[f] = out
	return out
}

// borrowedAt reports whether fn declares the given signature position
// //simlint:borrowed.
func borrowedAt(fn *callgraph.Func, param int) bool {
	for _, b := range fn.Borrowed {
		if b == param {
			return true
		}
	}
	return false
}

// report emits one diagnostic, anchored at the deepest position along
// the forwarding chain that still lies in the package being analyzed.
func report(pass *analysis.Pass, root *callgraph.Func, param int, e escape) {
	what := "parameter " + callgraph.ParamAt(root, param).Name()
	if param < 0 {
		what = "receiver " + callgraph.ParamAt(root, param).Name()
	}
	anchor := e.site.Pos
	if e.fn.Pkg != pass.Pkg {
		at := root
		anchor = e.path[0].pos
		for _, st := range e.path {
			if at.Pkg != pass.Pkg {
				break
			}
			anchor = st.pos
			at = st.callee
		}
	}
	p := pass.Fset.Position(e.site.Pos)
	where := fmt.Sprintf("%s (%s:%d)", e.site.What, filepath.Base(p.Filename), p.Line)
	if len(e.path) == 0 {
		pass.Reportf(anchor, "%s of %s is //simlint:borrowed but escapes: %s",
			what, root.Short(), where)
		return
	}
	chain := root.Short()
	for _, st := range e.path {
		chain += " → " + st.callee.Short()
	}
	pass.Reportf(anchor, "%s of %s is //simlint:borrowed but escapes via %s: %s",
		what, root.Short(), chain, where)
}
