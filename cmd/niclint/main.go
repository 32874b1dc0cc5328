// Command niclint runs the repository's custom static-analysis suite
// (internal/lint): detlint, hotpath, unitlint, exhaustive, and
// hashlint. It loads and type-checks packages with the
// standard library only — no module downloads — so it runs in hermetic CI.
//
// Usage:
//
//	go run ./cmd/niclint ./...
//	go run ./cmd/niclint -hotpath=false ./internal/sim ./internal/core
//	go run ./cmd/niclint -json ./... > niclint.json
//
// With -json the report (findings, analyzed packages, per-analyzer wall
// time) is written to stdout as one JSON object, findings-first, so CI can
// archive it as an artifact; the human summary still goes to stderr. With
// -timings the per-analyzer wall times are printed to stderr in text mode
// too.
//
// Exit status is 1 when any diagnostic is reported, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

// jsonFinding is one diagnostic in -json output, flattened so consumers
// need no knowledge of go/token positions.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Findings []jsonFinding         `json:"findings"`
	Packages []string              `json:"packages"`
	Timings  []lint.AnalyzerTiming `json:"timings"`
}

func main() {
	enabled := map[string]*bool{}
	for _, a := range lint.All() {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	verbose := flag.Bool("v", false, "list packages as they are analyzed")
	jsonOut := flag.Bool("json", false, "write the full report (findings, packages, timings) to stdout as JSON")
	timings := flag.Bool("timings", false, "print per-analyzer wall time to stderr")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	prog, err := lint.NewProgram(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := prog.LoadPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if *verbose {
		for _, p := range pkgs {
			fmt.Fprintf(os.Stderr, "niclint: %s\n", p.Path)
		}
	}
	diags, times, err := prog.RunTimed(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		rep := jsonReport{Findings: []jsonFinding{}}
		for _, d := range diags {
			rep.Findings = append(rep.Findings, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		for _, p := range pkgs {
			rep.Packages = append(rep.Packages, p.Path)
		}
		rep.Timings = times
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *timings || *jsonOut {
		for _, t := range times {
			fmt.Fprintf(os.Stderr, "niclint: %-10s %8.1f ms\n", t.Analyzer, t.WallMs)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "niclint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "niclint:", err)
	os.Exit(2)
}
