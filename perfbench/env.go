package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// buildDir holds everything a run builds or writes, inside the checkout
// the benchmark runs from (run.sh builds the binaries there).
const buildDir = ".bench_build"

// archiveBinary is the station server run.sh builds from this checkout.
var archiveBinary = filepath.Join(buildDir, "bin", "enviromic-archive")

// commitOf names the code under test: the git commit when the checkout
// is a repository, otherwise a digest of its Go sources.
func commitOf() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == buildDir || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// cpuTicks reads the host's stolen and total CPU ticks from /proc/stat
// (zeros where it is unavailable).
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		if i == 8 {
			break // guest time is already counted as user time
		}
		var v float64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
