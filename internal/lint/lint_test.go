package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

const fixtures = "testdata/src"

func TestDetlintFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Detlint, "fixture/detlint")
}

func TestDetlintImplicitInternal(t *testing.T) {
	linttest.Run(t, fixtures, lint.Detlint, "fixture/internal/implicit")
}

func TestHotpathFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Hotpath, "fixture/hotpath")
}

func TestExhaustiveFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Exhaustive, "fixture/exhaustive")
}

func TestHashlintFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Hashlint, "fixture/hashlint")
}

// TestConcurrencyContractPackagesClean pins the packages that sweep workers
// run concurrently — the sweep store and runner, experiments, which drives
// simulations from the runner's pool, and the firmware every one of those
// simulations runs — clean under hashlint even in -short mode, where the
// whole-tree check is skipped. Patterns resolve against the module root,
// and one naming no Go files loads nothing, so the package count is checked.
func TestConcurrencyContractPackagesClean(t *testing.T) {
	prog, err := lint.NewProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{"./internal/sweep", "./internal/firmware", "./internal/experiments"}
	pkgs, err := prog.LoadPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(patterns) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(patterns))
	}
	diags, err := prog.Run(pkgs, []*lint.Analyzer{lint.Hashlint})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestTreeClean runs the full suite over the repository and requires zero
// findings, mirroring CI's niclint step.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree analysis skipped in -short mode")
	}
	prog, err := lint.NewProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := prog.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
