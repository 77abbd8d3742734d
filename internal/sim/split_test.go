package sim

import (
	"go/build"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The live runtime measures itself with obs's bounded instruments and the
// simulator with this package's exact ones; neither side carries the other.
// These guards keep the split made: no live package reaches virtual time,
// however indirectly, and the engine stays free of falkon code.

const module = "falkon"

// liveRuntime lists the shipped daemons and the packages they are built
// from, as paths relative to the module root.
var liveRuntime = []string{
	"cmd/falkon-dispatcher", "cmd/falkon-executor", "cmd/falkon-submit", "cmd/falkon-top",
	"internal/dispatch", "internal/executor", "internal/client", "internal/forward",
	"internal/wsrpc", "internal/wal", "internal/replica", "internal/obs",
}

// falkonDeps returns every falkon package pkg imports, directly or
// transitively, reading non-test files under the current build context.
func falkonDeps(t *testing.T, pkg string) []string {
	t.Helper()
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		bp, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range bp.Imports {
			if (imp == module || strings.HasPrefix(imp, module+"/")) && !seen[imp] {
				seen[imp] = true
				walk(imp)
			}
		}
	}
	walk(module + "/" + pkg)
	deps := make([]string, 0, len(seen))
	for p := range seen {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	return deps
}

func TestLiveRuntimeImportsNoVirtualTime(t *testing.T) {
	for _, pkg := range liveRuntime {
		for _, dep := range falkonDeps(t, pkg) {
			if dep == module+"/internal/sim" || dep == module+"/internal/simfalkon" {
				t.Errorf("%s depends on %s", pkg, dep)
			}
		}
	}
}

func TestSimImportsNoFalkonPackage(t *testing.T) {
	if deps := falkonDeps(t, "internal/sim"); len(deps) > 0 {
		t.Errorf("internal/sim imports %v", deps)
	}
}
