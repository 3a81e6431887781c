package mega

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that no non-test code calls but that stay, keyed as
// "package.Func" or "package.Type.Method", each with its reason.
var exportAllowlist = map[string]string{
	"faults.ArmT":                         "harness: tests arm a fault plan for one test",
	"faults.Injected":                     "harness: tests match injected errors",
	"faults.WriteReport":                  "harness: the chaos test writes the fault-coverage log make chaos keeps",
	"gpusim.A100Class":                    "harness: tests compare against a modern device",
	"gpusim.Sim.Reset":                    "harness: tests reuse one simulator",
	"reorder.MeanNeighborDistance":        "harness: tests measure a reordering's locality",
	"wl.Equivalent":                       "harness: tests compare two WL labellings",
	"wl.Refiner.NumLabels":                "harness: tests count WL colour classes",
	"band.Rep.MissingEdges":               "harness: tests list the edges a band leaves out",
	"compute.MaxThreads":                  "harness: tests read the worker budget back",
	"tensor.NewF32":                       "harness: tests build f32 kernel inputs",
	"tensor.Arena.Buffered":               "harness: tests check what an arena holds",
	"tensor.Tensor.Clone":                 "harness: the gradient checks copy their input templates",
	"graph.Graph.Clone":                   "harness: tests copy a graph before editing it",
	"models.MegaOptions.PinStart":         "harness: tests pin the traversal start at vertex 0",
	"serve.Server.Predict":                "harness: tests predict without a context",
	"serve.Server.EffectiveOptions":       "harness: tests read the options a server resolved",
	"dynamic.Maintainer.RemoveEdge":       "part of the Maintainer shim the benchmark drives",
	"tensor.MSELoss":                      "harness: nn and models tests train on a squared-error loss",
	"tensor.ConcatCols":                   "reference op: the staged attention oracle in models/fused_test.go",
	"tensor.NarrowCols":                   "reference op: the staged attention oracle in models/fused_test.go",
	"tensor.RowDot":                       "reference op: the staged attention oracle in models/fused_test.go",
	"tensor.MulColVec":                    "reference op: the staged attention oracle in models/fused_test.go",
	"models.Context.SegmentSoftmaxByRecv": "reference op: the staged attention oracle in models/fused_test.go",
}

// stdlibMethods are exported method names a standard-library interface
// calls (fmt.Stringer, error, sort.Interface, json.Marshaler,
// json.Unmarshaler and the errors.Is/As chain), so no call site names them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Unwrap": true,
}

// TestInternalExportsHaveCallers fails when an exported top-level function
// or method declared under internal/ is named by no non-test Go file of
// the module other than its own declaration: code only its own unit tests
// reach is code no program runs.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]string{} // "package.[Type.]Name" → Name
	declPos := map[token.Pos]bool{}
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !internal || !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				if stdlibMethods[fd.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls[key] = fd.Name.Name
			declPos[fd.Name.Pos()] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declPos[id.Pos()] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for key, name := range decls {
		if _, allowed := exportAllowlist[key]; uses[name] == 0 && !allowed {
			orphans = append(orphans, key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is called by no non-test code: delete it, or add it to exportAllowlist with the reason it stays", o)
	}
	for key := range exportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("exportAllowlist names %s, which is not declared under internal/", key)
		}
	}
}

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
