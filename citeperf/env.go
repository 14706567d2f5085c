package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/core"
)

// stampEnv prints the run's environment to standard error as one JSON
// line, so results are never read without the conditions they came from.
func stampEnv(p *plan, work string) {
	counts := p.counts()
	counts["warm_cite"] = len(p.warm)
	stamp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"fsync":      core.DurableOptions{}.Fsync.String(),
		"data_fs":    fsType(work),
		"families":   p.families,
		"workload":   p.workload,
		"seed":       p.seed,
		"seconds":    p.seconds,
		"clients":    len(p.streams),
		"ops":        counts,
	}
	line, err := json.Marshal(map[string]any{"env": stamp})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	fmt.Fprintln(os.Stderr, string(line))
}

// report prints every metric by name with its unit.
func report(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprint(w, b.String())
}
