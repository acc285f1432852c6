// Command drainctl runs the Drain parser over a log file: discover
// templates, show per-template counts, extract parameters, and persist or
// reuse parser state across runs. Before parsing, IPv4 addresses (with
// an optional :port), hex literals, long hex ids and integers are masked
// as <*>.
//
// Usage:
//
//	drainctl -log app.log                          # template summary
//	drainctl -log app.log -show-params -limit 5    # with parameter samples
//	drainctl -log app.log -save state.json         # persist parser state
//	drainctl -log more.log -load state.json        # continue a state
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"logsynergy/internal/drain"
)

func main() {
	logPath := flag.String("log", "", "log file (default stdin)")
	savePath := flag.String("save", "", "save parser state to this file")
	loadPath := flag.String("load", "", "load parser state from this file")
	showParams := flag.Bool("show-params", false, "show one parameter sample per template")
	limit := flag.Int("limit", 0, "show only the top-N templates by count")
	simTh := flag.Float64("sim", 0.4, "Drain similarity threshold")
	depth := flag.Int("depth", 4, "Drain tree depth")
	flag.Parse()

	cfg := drain.DefaultConfig()
	cfg.SimThreshold = *simTh
	cfg.Depth = *depth

	parser := drain.New(cfg)
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fatal(err)
		}
		parser, err = drain.LoadState(f, cfg)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	in := os.Stdin
	if *logPath != "" {
		f, err := os.Open(*logPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	paramSample := make(map[int][]string)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		m := parser.Parse(sc.Text())
		lines++
		if *showParams {
			if _, ok := paramSample[m.EventID]; !ok {
				paramSample[m.EventID] = m.Params
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	events := parser.Events()
	sort.Slice(events, func(i, j int) bool { return events[i].Count > events[j].Count })
	shown := len(events)
	if *limit > 0 && *limit < shown {
		shown = *limit
	}
	fmt.Printf("%d lines, %d templates\n", lines, len(events))
	for _, ev := range events[:shown] {
		fmt.Printf("%6d  E%-4d %s\n", ev.Count, ev.ID, ev.Template)
		if *showParams {
			if ps := paramSample[ev.ID]; len(ps) > 0 {
				fmt.Printf("              params: %v\n", ps)
			}
		}
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := parser.SaveState(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "state saved to %s\n", *savePath)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "drainctl: %v\n", err)
	os.Exit(1)
}
