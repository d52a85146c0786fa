package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/core"
	"enviromic/internal/experiments"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/obs"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
	"enviromic/internal/telemetry"
)

// cityWindow is the simulated span of one city run: long enough that
// the 10,421-mote population's idle polls dominate, short enough for
// several runs per benchmark invocation.
const cityWindow = time.Minute

// buildReps is how many times each network is built per run.
const buildReps = 5

// indoorCorpusSetting is the indoor setting whose reassembled holdings
// seed the station phase of the indoor workload (full EnviroMic).
const indoorCorpusSetting = "lb-beta2"

// simRep is what one sim child process reports.
type simRep struct {
	BuildS      float64            `json:"build_s"`    // CPU seconds, median of buildReps builds, summed over runs
	RunS        float64            `json:"run_s"`      // CPU seconds to simulate and reassemble
	RunWallS    float64            `json:"run_wall_s"` // the same span in wall seconds
	ReassembleS float64            `json:"reassemble_s"`
	Digest      string             `json:"digest"`
	Counts      map[string]float64 `json:"counts"`
	MaxRSSMB    float64            `json:"-"` // filled by the parent from rusage
}

type simNet struct {
	name     string
	net      *core.Network
	until    time.Duration
	files    map[flash.FileID]*retrieval.File
	sampleAt []sim.Time
}

// simChildMain runs one repetition of a sim workload in this (child)
// process and prints its simRep as JSON. traced attaches an obs
// counting tracer, a telemetry registry and a CPU profile, and runs
// the scheduler in slices to sample heap depth.
func simChildMain(workload string, seed int64, traced bool, outDir, dumpPath string) error {
	var (
		rec     *spanRecorder
		tracer  *obs.Tracer
		reg     *telemetry.Registry
		profile string
	)
	if traced {
		rec = newSpanRecorder()
		tracer = obs.New(obs.NewCounting(nil))
		reg = telemetry.NewRegistry()
		profile = fmt.Sprintf("%s/%s-seed%d.cpu.pprof", outDir, workload, seed)
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer f.Close()
	}
	var rep simRep
	var rt runtimeSnap // runtime deltas over the runs, builds left out
	var nets []simNet
	var pendingSamples []float64
	run := func(name string, build func() *core.Network, until time.Duration, points int) {
		root := rec.begin("sim.setting:"+name, len(nets), -1)
		// Build buildReps networks and run the last: the median build
		// time is steadier than one sample of a few milliseconds. Each
		// discarded network is collected before the next build, so no
		// two are live at once.
		var builds []float64
		var net *core.Network
		for i := 0; i < buildReps; i++ {
			net = nil
			runtime.GC()
			c0 := cpuSeconds()
			sp := rec.begin("core.Build", len(nets), root)
			net = build()
			rec.end(sp)
			builds = append(builds, cpuSeconds()-c0)
		}
		rep.BuildS += median(builds)
		before := readRuntime()
		t1 := time.Now()
		c1 := cpuSeconds()
		sp := rec.begin("sim.Run", len(nets), root)
		if traced {
			// Slicing Run only adds scheduler stops; the digest check
			// proves the schedule is unchanged.
			const slices = 64
			net.Start()
			for i := 1; i <= slices; i++ {
				net.Sched.Run(sim.At(until * time.Duration(i) / slices))
				pendingSamples = append(pendingSamples, float64(net.Sched.Pending()))
			}
		}
		net.Run(sim.At(until))
		rec.end(sp)
		t2 := time.Now()
		sp = rec.begin("retrieval.Reassemble", len(nets), root)
		files := retrieval.Reassemble(net.Holdings(), retrieval.Query{All: true})
		rec.end(sp)
		t3 := time.Now()
		rep.RunS += cpuSeconds() - c1
		after := readRuntime()
		rt.gcCPU += after.gcCPU - before.gcCPU
		rt.busyCPU += after.busyCPU - before.busyCPU
		rt.allocs += after.allocs - before.allocs
		rec.end(root)
		rep.RunWallS += t3.Sub(t1).Seconds()
		rep.ReassembleS += t3.Sub(t2).Seconds()
		nets = append(nets, simNet{name: name, net: net, until: until, files: files,
			sampleAt: sampleTimes(until, points)})
	}
	switch workload {
	case "indoor":
		opts := experiments.DefaultIndoorOpts()
		opts.Seed = seed
		opts.Tracer, opts.Telemetry = tracer, reg
		for _, st := range experiments.IndoorSettings() {
			st := st
			run(st.Name, func() *core.Network { return experiments.BuildIndoor(st, opts) },
				opts.Duration, opts.SamplePoints)
		}
	case "city":
		opts := experiments.DefaultCityOpts()
		opts.Seed = seed
		opts.Duration = cityWindow
		opts.Tracer, opts.Telemetry = tracer, reg
		run("city", func() *core.Network { net, _ := experiments.BuildCity(opts); return net },
			cityWindow, 4)
	default:
		return fmt.Errorf("no sim for workload %q", workload)
	}
	if traced {
		pprof.StopCPUProfile()
	}

	rep.Digest = simDigest(nets)
	rep.Counts = simCounts(nets)
	events := rep.Counts["sim.events"]
	rep.Counts["runtime.gc_cpu_share"] = ratio(rt.gcCPU, rt.busyCPU)
	rep.Counts["runtime.allocs_per_event"] = ratio(rt.allocs, events)
	rep.Counts["sim.host_ns_per_event"] = ratio(rep.RunS*1e9, events)
	if traced {
		rep.Counts["sim.pending"] = mean(pendingSamples)
		shares, err := cpuSharesByPackage(profile)
		if err != nil {
			return err
		}
		for _, pkg := range []string{"sim", "group", "acoustics", "radio", "netstack", "storage", "flash"} {
			rep.Counts[pkg+".cpu_share"] = shares[pkg]
		}
		if err := rec.write(fmt.Sprintf("%s/%s-seed%d.sim.spans.jsonl", outDir, workload, seed)); err != nil {
			return err
		}
	}
	if dumpPath != "" {
		if err := dumpCorpus(nets, dumpPath); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// sampleTimes mirrors the experiments' curve sample grid.
func sampleTimes(dur time.Duration, points int) []sim.Time {
	out := make([]sim.Time, 0, points)
	for i := 1; i <= points; i++ {
		out = append(out, sim.At(dur*time.Duration(i)/time.Duration(points)))
	}
	return out
}

// simDigest hashes the fixed-seed simulated statistics: the miss,
// redundancy and message curves, the radio totals and the reassembled
// holdings of every run.
func simDigest(nets []simNet) string {
	h := sha256.New()
	for _, n := range nets {
		c := n.net.Collector
		fmt.Fprintf(h, "run %s\n", n.name)
		for _, t := range n.sampleAt {
			fmt.Fprintf(h, "t %d miss %.12g red %.12g msgs %d\n", t,
				c.MissRatioAt(t), c.RedundancyRatioAt(t, mote.DefaultSampleRate), c.MessageCountAt(t))
		}
		st := n.net.Radio.Stats()
		fmt.Fprintf(h, "radio %d %d %d %d %d %d\n", st.TotalFrames, st.TotalBytes,
			st.Delivered, st.Lost, st.DroppedRadioOff, st.DroppedPartition)
		for _, id := range sortedIDs(n.files) {
			f := n.files[id]
			fmt.Fprintf(h, "file %d %d\n", id, len(f.Chunks))
			for _, ch := range f.Chunks {
				fmt.Fprintf(h, "%d %d %d %d %08x\n", ch.Origin, ch.Seq, ch.Start, ch.End, crc32.ChecksumIEEE(ch.Data))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simCounts gathers the per-layer counts of a finished run from the
// radio's Stats, the metrics collector and the motes' flash stores.
func simCounts(nets []simNet) map[string]float64 {
	out := map[string]float64{}
	var simSeconds float64
	for _, n := range nets {
		simSeconds += n.until.Seconds()
		out["sim.events"] += float64(n.net.Sched.Executed())
		st := n.net.Radio.Stats()
		out["radio.frames"] += float64(st.TotalFrames)
		out["radio.delivered"] += float64(st.Delivered)
		out["radio.lost"] += float64(st.Lost)
		out["radio.drops_radio_off"] += float64(st.DroppedRadioOff)
		for kind, v := range st.TxByKind {
			switch {
			case strings.HasPrefix(kind, "group."):
				out["group.tx"] += float64(v)
			case strings.HasPrefix(kind, "task."):
				out["task.tx"] += float64(v)
			case kind == "bulk.data":
				out["netstack.bulk_tx"] += float64(v)
			case kind == "storage.ttl":
				out["storage.ttl_tx"] += float64(v)
			case kind == "timesync":
				out["timesync.tx"] += float64(v)
			}
		}
		out["task.recordings"] += float64(len(n.net.Collector.Recordings))
		out["storage.migrations"] += float64(len(n.net.Collector.Migrations))
		for _, node := range n.net.Nodes {
			out["flash.writes"] += float64(node.Mote.Store.TotalWrites())
		}
		out["retrieval.files"] += float64(len(n.files))
	}
	out["sim.events_per_sim_s"] = ratio(out["sim.events"], simSeconds)
	return out
}

func sortedIDs(files map[flash.FileID]*retrieval.File) []flash.FileID {
	ids := make([]flash.FileID, 0, len(files))
	for id := range files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// dumpCorpus writes the reassembled holdings of the corpus run in the
// archive's wire framing, for the workload's station phase.
func dumpCorpus(nets []simNet, path string) error {
	for _, n := range nets {
		if n.name != indoorCorpusSetting && n.name != "city" {
			continue
		}
		var chunks []*flash.Chunk
		for _, id := range sortedIDs(n.files) {
			chunks = append(chunks, n.files[id].Chunks...)
		}
		data, err := archive.EncodeFrames(chunks)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	return fmt.Errorf("no corpus run to dump")
}

type runtimeSnap struct{ gcCPU, busyCPU, allocs float64 }

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	runtime.GC() // settle the CPU-class estimates, which update at GC
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSnap{gcCPU: f(0), busyCPU: f(1) - f(2), allocs: f(3)}
}

// simPhase is the parent's view of a workload's sim repetitions.
type simPhase struct {
	reps   []simRep
	digest string
	failed int
	notes  []string
}

// runSimChild starts this binary as a sim child and collects its report
// and peak resident memory.
func runSimChild(workload string, seed int64, traced bool, outDir, dumpPath string) (simRep, error) {
	self, err := os.Executable()
	if err != nil {
		return simRep{}, err
	}
	args := []string{"sim-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-out", outDir, "-traced=" + strconv.FormatBool(traced)}
	if dumpPath != "" {
		args = append(args, "-dump", dumpPath)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return simRep{}, err
	}
	if err := cmd.Start(); err != nil {
		return simRep{}, err
	}
	var rep simRep
	body, rerr := io.ReadAll(bufio.NewReader(stdout))
	werr := cmd.Wait()
	if rerr != nil {
		return simRep{}, rerr
	}
	if werr != nil {
		return simRep{}, fmt.Errorf("sim child: %w", werr)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return simRep{}, fmt.Errorf("sim child output: %w", err)
	}
	u, err := usageOf(cmd.ProcessState)
	if err != nil {
		return simRep{}, err
	}
	rep.MaxRSSMB = u.maxRSSMB
	return rep, nil
}

// runSims repeats the untraced sim until budget has passed (at least
// minReps times), checking that every repetition reproduces the same
// digest, and that the digest matches the recorded one when the seed
// has one.
func runSims(workload string, seed int64, budget time.Duration, minReps int, outDir, dumpPath string) simPhase {
	var ph simPhase
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		dump := ""
		if i == 0 {
			dump = dumpPath
		}
		rep, err := runSimChild(workload, seed, false, outDir, dump)
		if err != nil {
			ph.failed++
			ph.notes = append(ph.notes, err.Error())
			continue
		}
		if msg := checkDigest(workload, seed, &ph.digest, rep.Digest); msg != "" {
			ph.failed++
			ph.notes = append(ph.notes, msg)
		}
		ph.reps = append(ph.reps, rep)
	}
	return ph
}

// checkDigest compares a run's digest with the first one of this
// invocation and with the recorded digest for the seed, if any.
func checkDigest(workload string, seed int64, first *string, got string) string {
	if *first == "" {
		*first = got
	} else if got != *first {
		return fmt.Sprintf("%s seed %d: digest %s differs from this invocation's first run %s", workload, seed, got, *first)
	}
	if want, ok := recordedDigest(workload, seed); ok && want != got {
		return fmt.Sprintf("%s seed %d: digest %s, recorded %s", workload, seed, got, want)
	}
	return ""
}

// cpuSeconds is the CPU time (user and system, all threads) this
// process has used. Unlike wall time it leaves out the time the
// hypervisor gives other guests, which on a shared virtual host varies
// by several percent from one run to the next.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
