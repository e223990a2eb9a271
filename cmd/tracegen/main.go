// Command tracegen synthesizes MSR-format block traces from the paper's
// Table 6 statistics, for replay by fiosim or external tools. A group's
// traces lie side by side in the address space and interleave in one
// timestamp-ordered file.
//
// Usage:
//
//	tracegen -trace prxy0 -n 100000 -scale 0.0625 -o prxy0.csv
//	tracegen -group Write -n 50000 -o write-group.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"srccache/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		name  = fs.String("trace", "", "trace name from Table 6 (e.g. prxy0)")
		group = fs.String("group", "", "emit every trace of a group (Write|Mixed|Read)")
		n     = fs.Int64("n", 100_000, "records per trace")
		scale = fs.Float64("scale", 1.0/16, "footprint scale vs the paper")
		seed  = fs.Int64("seed", 0, "generator seed")
		out   = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var specs []trace.Spec
	switch {
	case *group != "":
		g, err := trace.Group(*group)
		if err != nil {
			return err
		}
		specs = g
	case *name != "":
		for _, gname := range trace.GroupNames() {
			g, err := trace.Group(gname)
			if err != nil {
				return err
			}
			for _, s := range g {
				if s.Name == *name {
					specs = append(specs, s)
				}
			}
		}
		if len(specs) == 0 {
			return fmt.Errorf("unknown trace %q (see Table 6 names, e.g. prxy0)", *name)
		}
	default:
		return fmt.Errorf("one of -trace or -group is required")
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	recs, err := trace.SynthFile(specs, *n, *scale, *seed)
	if err != nil {
		return err
	}
	return trace.WriteCSV(w, recs)
}
