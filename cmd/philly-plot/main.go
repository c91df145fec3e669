// Command philly-plot is the plotting hook for sweep exports: it reads the
// machine-readable JSON written by `philly-sweep -o json` (the sweep.Result
// export, format_version 1) and emits per-axis plot-ready artifacts — a
// tidy CSV (one row per scenario × metric, one column per axis, full
// aggregates) and/or a GitHub-flavored Markdown comparison table.
//
// Usage:
//
//	philly-sweep -axis sched.policy=philly,fifo -o json > sweep.json
//	philly-plot -in sweep.json -csv sweep.csv -md sweep.md
//
// With no output flags the CSV goes to stdout; "-" selects stdout
// explicitly for either format. -in - (the default) reads stdin, so the
// two commands pipe directly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"philly/internal/sweep"
)

func main() {
	in := flag.String("in", "-", "sweep export JSON to read (- = stdin)")
	csvOut := flag.String("csv", "", "write the tidy per-axis CSV here (- = stdout)")
	mdOut := flag.String("md", "", "write the Markdown comparison table here (- = stdout)")
	flag.Parse()
	if *csvOut == "" && *mdOut == "" {
		*csvOut = "-"
	}

	var rd io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		rd = f
	}
	res, err := sweep.DecodeJSON(rd)
	if err != nil {
		fail(err)
	}

	if *csvOut != "" {
		if err := writeTo(*csvOut, res.WritePlotCSV); err != nil {
			fail(err)
		}
	}
	if *mdOut != "" {
		if err := writeTo(*mdOut, res.WritePlotMarkdown); err != nil {
			fail(err)
		}
	}
}

// writeTo writes via the given renderer to a path or stdout ("-").
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "philly-plot:", err)
	os.Exit(1)
}
