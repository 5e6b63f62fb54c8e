package bench

import (
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/callgraph"
)

// detGateFiles hold the repo's byte-identical equivalence tests: the
// golden service pass, the parallel-vs-sequential sweep comparison and
// the trace codec round trips. Each carries a
// `//simlint:deterministic <function>` directive naming the
// result-producing root it exercises, in types.Func.FullName form.
var detGateFiles = []string{
	"internal/core/replay_prefix_test.go",
	"internal/core/replay_resume_test.go",
	"internal/core/replay_window_test.go",
	"internal/search/search_test.go",
	"internal/service/golden_test.go",
	"internal/sweeprun/sweeprun_test.go",
	"internal/timing/replay_test.go",
	"internal/trace/store_test.go",
}

// TestDetflowStaticMatchesEquivalenceGates ties the two halves of the
// determinism story together. The static half is the set of
// //simlint:deterministic-annotated functions that cmd/simlint's
// detflow analyzer proves transitively free of nondeterministic
// constructs. The runtime half is the set of entry points the
// equivalence tests replay and diff byte-for-byte. This test asserts
// they describe the same roots:
//
//  1. every root a gate file declares resolves to a function in the
//     module call graph (no stale directives after a rename) and is
//     actually annotated //simlint:deterministic — an equivalence test
//     must not exercise an entry point the static suite leaves
//     unverified, and
//  2. every //simlint:deterministic-annotated function is declared by
//     some gate — the static guarantee never covers a root no runtime
//     equivalence test measures.
//
// Unlike the hotpath gate test, the match is exact set equality rather
// than reachability: deterministic roots are the specific functions
// whose outputs the golden tests diff, not a closure over callees
// (callees are covered by detflow's own traversal).
//
// Directives in _test.go files are invisible to the simlint driver
// (package loading excludes test files), so naming a root here imposes
// no static obligation on the tests themselves.
func TestDetflowStaticMatchesEquivalenceGates(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module via go list")
	}
	pkgs, err := analysis.Load(".", "./internal/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	g := callgraph.Build(pkgs)

	roots := detGateRoots(t)
	if len(roots) == 0 {
		t.Fatal("no //simlint:deterministic directives found in the gate files")
	}

	// Rule 1: every declared root must exist and carry the annotation.
	declared := map[string]bool{}
	for _, name := range roots {
		declared[name] = true
		fn, ok := g.Funcs[name]
		if !ok {
			t.Errorf("gate directive names %s, which is not in the module call graph (renamed or removed?)", name)
			continue
		}
		if !fn.Deterministic {
			t.Errorf("gate directive names %s, but it is not annotated //simlint:deterministic; annotate it or drop the gate", name)
		}
	}

	// Rule 2: every statically-verified deterministic root is gated.
	var ungated []string
	for name, fn := range g.Funcs {
		if fn.Deterministic && !declared[name] {
			ungated = append(ungated, name)
		}
	}
	sort.Strings(ungated)
	for _, name := range ungated {
		t.Errorf("%s is //simlint:deterministic but no byte-identical equivalence test declares it; add a gate or drop the annotation", name)
	}
}

// detGateRoots parses the gate files and collects the function names
// declared by their //simlint:deterministic directives.
func detGateRoots(t *testing.T) []string {
	t.Helper()
	const prefix = "//simlint:deterministic "
	var roots []string
	fset := token.NewFileSet()
	for _, path := range detGateFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, prefix); ok {
					name := strings.TrimSpace(rest)
					if name == "" {
						t.Errorf("%s: bare //simlint:deterministic directive; gate files must name the root", fset.Position(c.Pos()))
						continue
					}
					roots = append(roots, name)
				}
			}
		}
	}
	return roots
}
