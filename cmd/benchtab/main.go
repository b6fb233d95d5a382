// Command benchtab regenerates every experiment table of the reproduction
// (E1-E9 in DESIGN.md) and prints them in the format recorded in
// EXPERIMENTS.md. The tables count abstract machine cycles, so they are
// host-independent and golden-pinned; the simulator's host wall clock is
// measured by the root package's go test benchmarks instead.
//
// Usage:
//
//	benchtab                    # all experiments
//	benchtab -only E3           # one experiment (regexp over ids)
//	benchtab -format markdown   # the EXPERIMENTS.md sections
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"ppamcp/internal/bench"
)

func main() {
	only := flag.String("only", "", "regexp over experiment ids (E1..E9); only matching experiments run")
	format := flag.String("format", "text", "output format: text|markdown")
	flag.Parse()

	re, err := regexp.Compile(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: bad -only regexp: %v\n", err)
		os.Exit(1)
	}
	ran := 0
	for _, e := range bench.Experiments {
		if !re.MatchString(e.ID) {
			continue
		}
		t := e.Run()
		if *format == "markdown" {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Format())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: -only %q matched no experiment\n", *only)
		os.Exit(1)
	}
}
