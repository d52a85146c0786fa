package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuSharesByPackage reads a runtime/pprof CPU profile with the
// toolchain's `go tool pprof -top` and returns, for each Go package, its
// share of self (flat) samples. pprof lists inlined frames as functions
// of their own, so a sample counts for the innermost one.
func cpuSharesByPackage(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	var total float64
	byPkg := map[string]float64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat" // the column header
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof %s: row %q: %w", path, line, err)
		}
		byPkg[packageOf(f[5])] += flat
		total += flat
	}
	if !rows {
		return nil, fmt.Errorf("go tool pprof %s: no table in its output", path)
	}
	shares := make(map[string]float64, len(byPkg))
	for pkg, v := range byPkg {
		shares[pkg] = ratio(v, total)
	}
	return shares, nil
}

// packageOf maps a symbol like "enviromic/internal/sim.(*Scheduler).Run"
// to its short package name ("sim"). The runtime's own packages keep
// their import path ("runtime", "internal/runtime/maps").
func packageOf(fn string) string {
	if fn == "" {
		return "unknown"
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	pkg := fn[:slash+1+dot]
	if strings.HasPrefix(pkg, "enviromic/internal/") {
		return strings.TrimPrefix(pkg, "enviromic/internal/")
	}
	return pkg
}
