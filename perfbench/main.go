// Command perfbench is the repository's benchmark: one named workload
// per invocation, end-to-end metrics with tracing off, per-layer metrics
// in a separate traced run, outputs checked either way.
//
//	perfbench --workload indoor|city|station --seed N --seconds S --trace 0|1
//
// It prints a human-readable table followed, as the last line, by one
// JSON object {"correct", "attempted", "failed", "metrics"}. Build and
// run it with perfbench/run.sh from the repository root; see README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Every workload runs a station phase (see README.md), so
// every metric has a measured value on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"peak_rss_mb", "MB"},
	{"index_p50_ms", "ms"}, {"file_p50_ms", "ms"}, {"wav_p50_ms", "ms"}, {"ingest_p50_ms", "ms"},
}

// perLayer are the traced run's metrics. Layers a workload does not
// run report 0.
var perLayer = []metricDef{
	{"sim.events", "count"}, {"sim.events_per_sim_s", "1/s"}, {"sim.host_ns_per_event", "ns"},
	{"sim.cpu_share", "ratio"}, {"sim.pending", "count"},
	{"group.tx", "count"}, {"group.cpu_share", "ratio"}, {"acoustics.cpu_share", "ratio"},
	{"radio.frames", "count"}, {"radio.delivered", "count"}, {"radio.lost", "count"},
	{"radio.drops_radio_off", "count"}, {"radio.cpu_share", "ratio"},
	{"netstack.bulk_tx", "count"}, {"netstack.cpu_share", "ratio"},
	{"task.tx", "count"}, {"task.recordings", "count"},
	{"storage.ttl_tx", "count"}, {"storage.migrations", "count"}, {"storage.cpu_share", "ratio"},
	{"flash.writes", "count"}, {"flash.cpu_share", "ratio"}, {"timesync.tx", "count"},
	{"retrieval.reassemble_s", "s"}, {"retrieval.files", "count"},
	{"runtime.gc_cpu_share", "ratio"}, {"runtime.allocs_per_event", "count"},
	{"core.build_s", "s"},
	{"archive.query_ms_p50", "ms"}, {"archive.query_ms_p99", "ms"}, {"archive.gaps_ms_p99", "ms"},
	{"archive.file_cold_ms_p50", "ms"}, {"archive.file_cold_ms_p99", "ms"}, {"archive.file_warm_us_p50", "us"},
	{"archive.cache_hit_ratio", "ratio"}, {"archive.cache_evictions", "count"}, {"archive.flight_join_ratio", "ratio"},
	{"erasure.decode_ms_p99", "ms"}, {"trace.stitch_ms_p50", "ms"}, {"wav.encode_ms_p50", "ms"},
	{"archive.ingest_ms_p50", "ms"}, {"archive.ingest_ms_p99", "ms"},
	{"archive.group_commits", "count"}, {"archive.batch_chunks_mean", "count"},
	{"archive.checkpoints", "count"}, {"archive.write_amp", "ratio"},
	{"archive.compactions", "count"}, {"archive.compact_s", "s"}, {"archive.reclaimed_bytes", "bytes"},
	{"archive.open_s", "s"}, {"archive.replayed_chunks", "count"},
	{"http.index_overhead_ms_p50", "ms"}, {"http.file_overhead_ms_p50", "ms"},
	{"http.wav_overhead_ms_p50", "ms"}, {"http.ingest_overhead_ms_p50", "ms"},
	{"bench.gen_late_ms_max", "ms"}, {"bench.client_queue_ms_p99", "ms"},
	{"bench.trace_overhead", "ratio"},
	// The station p99s carry no bound: on a shared 2-CPU virtual host
	// they swing by up to a factor of six between back-to-back runs
	// with the hypervisor's stolen time. Untraced runs print them under
	// the table.
	{"index_p99_ms", "ms"}, {"file_p99_ms", "ms"}, {"wav_p99_ms", "ms"}, {"ingest_p99_ms", "ms"},
}

var workloads = map[string]bool{"indoor": true, "city": true, "station": true}

//go:embed digests.json
var digestsJSON []byte

// recordedDigest returns the digest recorded for a sim workload's seed.
func recordedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// report accumulates one invocation's metrics and outcome.
type report struct {
	env       map[string]string
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	notes     []string
	info      []string // printed under the table, not part of the result
}

func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *report) fail(n int, notes ...string) {
	r.failed += n
	r.notes = append(r.notes, notes...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sim-child" {
		os.Exit(simChild(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "ingest-child" {
		fs := flag.NewFlagSet("ingest-child", flag.ExitOnError)
		dir := fs.String("dir", "", "")
		frames := fs.String("frames", "", "")
		fs.Parse(os.Args[2:])
		if err := ingestChild(*dir, *frames); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench ingest-child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload: indoor, city or station")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measured seconds")
		trace    = flag.Int("trace", 0, "1 for the traced per-layer run")
	)
	flag.Parse()
	if !workloads[*workload] || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload indoor|city|station --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func simChild(args []string) int {
	fs := flag.NewFlagSet("sim-child", flag.ExitOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	out := fs.String("out", "", "")
	traced := fs.Bool("traced", false, "")
	dump := fs.String("dump", "", "")
	fs.Parse(args)
	if err := simChildMain(*workload, *seed, *traced, *out, *dump); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench sim-child: %v\n", err)
		return 1
	}
	return 0
}

func run(workload string, seed int64, budget time.Duration, traced bool) error {
	outDir := filepath.Join(buildDir, "out")
	workDir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	rep := &report{env: hostEnv(seed), values: map[string]float64{}, samples: map[string]int{}}
	steal0, total0 := cpuTicks()
	var err error
	if traced {
		err = runTraced(rep, workload, seed, budget, outDir, workDir)
	} else {
		err = runTimed(rep, workload, seed, budget, outDir, workDir)
	}
	if err != nil {
		return err
	}
	// CPU time the hypervisor gave to other guests: a noisy host shows
	// here before it shows as a regression.
	steal1, total1 := cpuTicks()
	rep.env["steal_pct"] = strconv.FormatFloat(100*ratio(steal1-steal0, total1-total0), 'f', 1, 64)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return emit(rep, workload, traced, defs, outDir)
}

// stationConfigFor splits the budget: the station workload spends four
// fifths of it under load, a sim workload three fifths simulating and
// two fifths in a station phase serving the sim's own recordings.
func stationConfigFor(workload string, seed int64, budget time.Duration, workDir, outDir string, traced bool) stationConfig {
	sc := stationConfig{workload: workload, seed: seed, workDir: workDir, outDir: outDir,
		nominal: budget * 4 / 5, traced: traced}
	if workload != "station" {
		sc.nominal = budget * 2 / 5
		sc.corpusPath = filepath.Join(workDir, "corpus.frames")
	}
	return sc
}

// runTimed is the untraced run: end-to-end metrics only.
func runTimed(rep *report, workload string, seed int64, budget time.Duration, outDir, workDir string) error {
	sc := stationConfigFor(workload, seed, budget, workDir, outDir, false)
	if workload != "station" {
		ph := runSims(workload, seed, budget-sc.nominal, 3, outDir, sc.corpusPath)
		rep.attempted += len(ph.reps) + ph.failed
		rep.fail(ph.failed, ph.notes...)
		if len(ph.reps) == 0 {
			return fmt.Errorf("no sim run completed: %v", ph.notes)
		}
		var build, runS, wall, rss []float64
		for _, r := range ph.reps {
			build = append(build, r.BuildS)
			runS = append(runS, r.RunS)
			wall = append(wall, r.RunWallS)
			rss = append(rss, r.MaxRSSMB)
		}
		rep.set("setup_s", median(build), len(build))
		rep.set("run_s", median(runS), len(runS))
		rep.set("peak_rss_mb", median(rss), len(rss))
		rep.info = append(rep.info, fmt.Sprintf("run_wall_s %.4f s (median of %d)", median(wall), len(wall)))
		rep.env["digest"] = ph.digest
	}
	st, err := runStation(sc)
	if err != nil {
		return err
	}
	rep.attempted += st.attempted
	rep.fail(st.failed, st.notes...)
	if workload == "station" {
		rep.set("setup_s", median(st.setupS), len(st.setupS))
		rep.info = append(rep.info, fmt.Sprintf("setup_wall_s %.4f s (median of %d)", median(st.setupWallS), len(st.setupWallS)))
		rep.set("run_s", st.serveCPUS, 1)
		rep.set("peak_rss_mb", st.rssMB, 1)
	}
	for _, c := range classes {
		lat := st.latency[c]
		rep.set(c+"_p50_ms", quantile(lat, 0.50), len(lat))
		rep.info = append(rep.info, fmt.Sprintf("%s_p99_ms %.4f ms (%d samples; not bounded)", c, quantile(lat, 0.99), len(lat)))
	}
	return nil
}

// traceOverheadPairs is how many untraced and traced sim children a
// traced run alternates.
const traceOverheadPairs = 3

// runTraced is the traced run: per-layer metrics, plus the tracing
// overhead against an untraced repetition of the same work.
func runTraced(rep *report, workload string, seed int64, budget time.Duration, outDir, workDir string) error {
	for _, d := range perLayer {
		rep.set(d.name, 0, 0)
	}
	sc := stationConfigFor(workload, seed, budget, workDir, outDir, true)
	if workload != "station" {
		// Back-to-back runs of the same child differ by up to 15% on a
		// shared host, so the overhead is the ratio of medians over
		// alternating untraced and traced pairs.
		var (
			digest          string
			plain, tr       simRep
			plainS, tracedS []float64
		)
		for i := 0; i < traceOverheadPairs; i++ {
			dump := ""
			if i == 0 {
				dump = sc.corpusPath
			}
			p, err := runSimChild(workload, seed, false, outDir, dump)
			if err != nil {
				return err
			}
			t, err := runSimChild(workload, seed, true, outDir, "")
			if err != nil {
				return err
			}
			rep.attempted += 2
			for _, d := range []string{p.Digest, t.Digest} {
				if msg := checkDigest(workload, seed, &digest, d); msg != "" {
					rep.fail(1, msg)
				}
			}
			plain, tr = p, t
			plainS, tracedS = append(plainS, p.RunS), append(tracedS, t.RunS)
		}
		rep.env["digest"] = digest
		for name, v := range tr.Counts {
			rep.set(name, v, 1)
		}
		// Host-time and runtime figures come from the untraced child,
		// so the tracer and profiler do not inflate them.
		for _, name := range []string{"sim.host_ns_per_event", "runtime.gc_cpu_share", "runtime.allocs_per_event"} {
			rep.set(name, plain.Counts[name], 1)
		}
		rep.set("retrieval.reassemble_s", plain.ReassembleS, 1)
		rep.set("core.build_s", plain.BuildS, 1)
		rep.set("bench.trace_overhead", ratio(median(tracedS), median(plainS)), len(plainS))
	}
	st, err := runStation(sc)
	if err != nil {
		return err
	}
	rep.attempted += st.attempted
	rep.fail(st.failed, st.notes...)
	for name, v := range st.layer {
		if workload != "station" && name == "bench.trace_overhead" {
			continue
		}
		rep.set(name, v, st.layerSamples[name])
	}
	for _, c := range classes {
		lat := st.latency[c]
		rep.set(c+"_p99_ms", quantile(lat, 0.99), len(lat))
	}
	return nil
}

// emit prints the table, writes the result rows, and prints the JSON
// result line last.
func emit(rep *report, workload string, traced bool, defs []metricDef, outDir string) error {
	keys := make([]string, 0, len(rep.env))
	for k := range rep.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# perfbench workload=%s trace=%v", workload, traced)
	for _, k := range keys {
		fmt.Printf(" %s=%s", k, rep.env[k])
	}
	fmt.Println()
	fmt.Printf("%-30s %16s %-6s %8s\n", "metric", "value", "unit", "samples")
	type row struct {
		Metric  string            `json:"metric"`
		Value   float64           `json:"value"`
		Unit    string            `json:"unit"`
		Samples int               `json:"samples"`
		Env     map[string]string `json:"env"`
	}
	var rows []row
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-30s %16.6g %-6s %8d\n", d.name, v, d.unit, rep.samples[d.name])
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		rows = append(rows, row{d.name, v, d.unit, rep.samples[d.name], rep.env})
	}
	failedRatio := ratio(float64(rep.failed), float64(rep.attempted))
	fmt.Printf("%-30s %16.6g %-6s %8d\n", "failed_ratio", failedRatio, "ratio", rep.attempted)
	for _, n := range rep.info {
		fmt.Printf("# %s\n", n)
	}
	for _, n := range rep.notes {
		fmt.Printf("# failure: %s\n", n)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	rowsPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%s-trace%v.json", workload, rep.env["seed"], traced))
	if err := os.WriteFile(rowsPath, data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostEnv records what every result row carries: host parallelism, Go
// version, the code under test and the seed.
func hostEnv(seed int64) map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commitOf(),
		"seed":       strconv.FormatInt(seed, 10),
	}
}
