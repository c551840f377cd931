package gridbw

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestWireClientAndLoadgenDoNotLinkTheDaemon keeps the cut internal/wire
// makes: the byte formats, the client and the load generator build without
// the daemon. It reads the imports of every non-test file in the module and
// fails if any of the packages below reaches the daemon, its hold table,
// the admission step or the core facade, however indirectly.
func TestWireClientAndLoadgenDoNotLinkTheDaemon(t *testing.T) {
	const module = "gridbw/"
	imports := map[string][]string{} // package dir → the module's packages it imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) && path != ".":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if dep, ok := strings.CutPrefix(p, module); ok && !slices.Contains(imports[dir], dep) {
				imports[dir] = append(imports[dir], dep)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	forbidden := []string{"internal/server", "internal/hold", "internal/admit", "internal/core"}
	for _, root := range []string{"internal/wire", "internal/server/client", "internal/loadgen", "cmd/gridbwload"} {
		if _, ok := imports[root]; !ok {
			t.Errorf("%s: no such package", root)
			continue
		}
		// Walk the import graph from root, remembering how each package was
		// reached so a failure names the chain.
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, dep := range imports[p] {
				if _, seen := via[dep]; !seen {
					via[dep] = p
					queue = append(queue, dep)
				}
			}
		}
		for _, bad := range forbidden {
			if _, ok := via[bad]; !ok {
				continue
			}
			chain := []string{bad}
			for p := via[bad]; p != ""; p = via[p] {
				chain = append(chain, p)
			}
			slices.Reverse(chain)
			t.Errorf("%s links %s: %s", root, bad, strings.Join(chain, " → "))
		}
	}
}
