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
// the daemon. It fails if any of the packages below reaches the daemon, its
// hold table, the admission step or the core facade, however indirectly.
func TestWireClientAndLoadgenDoNotLinkTheDaemon(t *testing.T) {
	imports := moduleImports(t)
	forbidden := []string{"internal/server", "internal/hold", "internal/admit", "internal/core"}
	for _, root := range []string{"internal/wire", "internal/server/client", "internal/loadgen", "cmd/gridbwload"} {
		checkUnreachable(t, imports, root, forbidden)
	}
}

// TestRouterDoesNotLinkTheDaemon keeps the cuts internal/callplane and
// internal/wire make: the router is a proxy and links none of the daemon,
// its state machine, its hold table, the admission step or the core facade;
// and the request plane both of them serve calls through stands alone:
// internal/wire and internal/callplane reach no module package but
// internal/units and each other, so they link neither the WAL, the
// replication group nor the metrics behind the daemon's pages.
func TestRouterDoesNotLinkTheDaemon(t *testing.T) {
	imports := moduleImports(t)
	checkUnreachable(t, imports, "internal/router", []string{"internal/server", "internal/state", "internal/core", "internal/hold", "internal/admit"})
	plane := []string{"internal/wire", "internal/callplane", "internal/units"}
	var rest []string
	for p := range imports {
		if !slices.Contains(plane, p) {
			rest = append(rest, p)
		}
	}
	slices.Sort(rest)
	for _, root := range plane[:2] {
		checkUnreachable(t, imports, root, rest)
	}
}

// TestStateMachineStandsAlone keeps the cut internal/state makes: the
// reservation state machine reaches the daemon only through the two seams
// the daemon sets, so it imports neither the WAL, the replication group's
// rules nor HTTP, and reaches neither the daemon nor the router at any depth.
func TestStateMachineStandsAlone(t *testing.T) {
	imports := moduleImports(t)
	for _, dep := range imports["internal/state"] {
		if slices.Contains([]string{"internal/wal", "internal/cluster", "net/http"}, dep) {
			t.Errorf("internal/state imports %s", dep)
		}
	}
	checkUnreachable(t, imports, "internal/state", []string{"internal/server", "internal/router"})
}

// moduleImports reads the imports of every non-test file in the module:
// package dir → what it imports, the module's own packages by their dir.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	const module = "gridbw/"
	imports := map[string][]string{}
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
			p = strings.TrimPrefix(p, module)
			if !slices.Contains(imports[dir], p) {
				imports[dir] = append(imports[dir], p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports
}

// checkUnreachable fails t for every package of forbidden that root
// reaches in imports, naming the chain.
func checkUnreachable(t *testing.T, imports map[string][]string, root string, forbidden []string) {
	t.Helper()
	if _, ok := imports[root]; !ok {
		t.Errorf("%s: no such package", root)
		return
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
