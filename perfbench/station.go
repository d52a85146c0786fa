package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/telemetry"
	"enviromic/internal/wav"
)

const (
	// requestTimeout fails a request; a failed request's latency is
	// counted as this long, so it misses every latency limit.
	requestTimeout = 2 * time.Second
	// serverStarts is how many times the server is started on the
	// preloaded archive to time setup; the last one serves the run.
	serverStarts = 9
	// preloadFiles and newFiles size the station workload's synthetic
	// corpus: about 50 MB preloaded, three times the 16 MiB reassembly
	// cache, so the Zipf tail misses while the head stays cached.
	preloadFiles = 1600
	newFiles     = 1200
	// preloadBatch is the preload's chunks per ingest call.
	preloadBatch = 512
)

type stationConfig struct {
	workload   string
	seed       int64
	workDir    string
	outDir     string
	corpusPath string // a sim workload's recordings; empty for the synthetic corpus
	nominal    time.Duration
	traced     bool
}

type stationResult struct {
	setupS       []float64 // server CPU seconds to its first answer
	setupWallS   []float64
	serveCPUS    float64 // server CPU seconds over the load phase
	rssMB        float64
	latency      map[string][]float64 // endpoint class -> ms
	attempted    int
	failed       int
	notes        []string
	layer        map[string]float64
	layerSamples map[string]int
}

func (r *stationResult) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// runStation preloads the archive, starts the real server on it, drives
// the nominal open-loop phase and checks every answer. Traced, it also
// scrapes /metrics around the run and replays the same requests as
// direct calls against copies of the preloaded archive.
func runStation(cfg stationConfig) (*stationResult, error) {
	res := &stationResult{latency: map[string][]float64{}, layer: map[string]float64{}, layerSamples: map[string]int{}}
	var c *corpus
	if cfg.corpusPath == "" {
		c = syntheticCorpus(cfg.seed, preloadFiles, newFiles)
	} else {
		var err error
		if c, err = simCorpus(cfg.corpusPath, cfg.seed); err != nil {
			return nil, err
		}
	}
	if len(c.readable) < 2 {
		return nil, fmt.Errorf("corpus has %d preloaded files", len(c.readable))
	}
	plan, err := buildPlan(c, cfg.seed, cfg.nominal)
	if err != nil {
		return nil, err
	}

	dir := filepath.Join(cfg.workDir, "archive")
	if err := preload(dir, cfg.workDir, c.preloadChunks()); err != nil {
		return nil, err
	}
	var replayDirs []string
	if cfg.traced {
		for _, name := range []string{"replay-plain", "replay-traced"} {
			d := filepath.Join(cfg.workDir, name)
			if err := copyDir(dir, d); err != nil {
				return nil, err
			}
			replayDirs = append(replayDirs, d)
		}
	}

	var srv *server
	for i := 0; i < serverStarts; i++ {
		s, wall, err := startServer(dir)
		if err != nil {
			return nil, err
		}
		res.setupWallS = append(res.setupWallS, wall.Seconds())
		if i == serverStarts-1 {
			srv = s
			break
		}
		// Killed right after its first answer, the server's CPU time
		// is what opening the archive and answering cost.
		u, err := s.stop()
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, u.cpuS)
	}
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	var before map[string]float64
	if cfg.traced {
		if before, err = scrape(client, srv.base); err != nil {
			srv.stop()
			return nil, err
		}
	}

	results := make([]httpResult, len(plan))
	outs := runOpenLoop(context.Background(), len(plan), func(i int) time.Duration { return plan[i].due }, conns,
		func(ctx context.Context, i int) error {
			ctx, cancel := context.WithTimeout(ctx, requestTimeout)
			defer cancel()
			return doRequest(ctx, client, srv.base, plan[i], &results[i])
		})

	var after map[string]float64
	if cfg.traced {
		after, err = scrape(client, srv.base)
	}
	u, serr := srv.stop()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	res.rssMB = u.maxRSSMB
	res.serveCPUS = u.cpuS - median(res.setupS)
	client.CloseIdleConnections()

	checkRun(c, plan, outs, results, res)
	for i, o := range plan {
		cl := o.class()
		if cl == "" {
			continue
		}
		lat := ms(outs[i].Latency())
		if outs[i].Err != nil || !results[i].ok {
			lat = ms(requestTimeout)
		}
		res.latency[cl] = append(res.latency[cl], lat)
	}
	if cfg.traced {
		if err := stationLayers(res, c, plan, outs, before, after, replayDirs, cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tailShare is the share of the preload, as a divisor of its chunk
// count, that lands after the last checkpoint and is left there by a
// crash: every open then replays a segment tail, as a basestation
// restarted after a power loss does.
const tailShare = 8

// preload ingests the preload chunks into a new archive with default
// options. All but the last 1/tailShare are ingested in-process and
// closed, which checkpoints every shard's index; the rest are ingested
// by a child process that is then killed, so they sit in the segment
// tails past the snapshots.
func preload(dir, workDir string, chunks []*flash.Chunk) error {
	cut := len(chunks) - len(chunks)/tailShare
	s, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	added, err := ingestBatches(s, chunks[:cut])
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	tail, err := ingestThenCrash(dir, workDir, chunks[cut:])
	if err != nil {
		return err
	}
	if added+tail != len(chunks) {
		return fmt.Errorf("preload added %d of %d distinct chunks", added+tail, len(chunks))
	}
	return nil
}

// ingestBatches ingests chunks in preloadBatch-chunk calls and returns
// how many were added.
func ingestBatches(s *archive.Store, chunks []*flash.Chunk) (int, error) {
	added := 0
	for i := 0; i < len(chunks); i += preloadBatch {
		rep, err := s.Ingest(chunks[i:min(i+preloadBatch, len(chunks))])
		if err != nil {
			return added, err
		}
		added += rep.Added
	}
	return added, nil
}

// ingestThenCrash has a child process ingest chunks into the archive at
// dir, and kills it once it reports every batch acknowledged. It
// returns how many chunks the child added.
func ingestThenCrash(dir, workDir string, chunks []*flash.Chunk) (int, error) {
	frames, err := archive.EncodeFrames(chunks)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(workDir, "tail.frames")
	if err := os.WriteFile(path, frames, 0o644); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "ingest-child", "-dir", dir, "-frames", path)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var added int
	_, serr := fmt.Fscan(out, &added)
	cmd.Process.Kill()
	cmd.Wait()
	if serr != nil {
		return 0, fmt.Errorf("ingest child: %w", serr)
	}
	return added, nil
}

// ingestChild is the child side of ingestThenCrash: it ingests the
// framed chunks in the file at framesPath, prints how many it added and
// waits to be killed, never closing the archive.
func ingestChild(dir, framesPath string) error {
	f, err := os.Open(framesPath)
	if err != nil {
		return err
	}
	chunks, err := archive.DecodeFrames(f)
	f.Close()
	if err != nil {
		return err
	}
	s, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	added, err := ingestBatches(s, chunks)
	if err != nil {
		return err
	}
	fmt.Println(added)
	time.Sleep(time.Hour)
	return errors.New("ingest child was not killed")
}

// server is one running enviromic-archive process.
type server struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
}

// startServer starts the archive server on dir and returns once it has
// answered a request, with the time that took.
func startServer(dir string) (*server, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(archiveBinary, "-dir", dir, "-http", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
			s.base = strings.Fields(rest)[0]
			break
		}
	}
	go func() {
		io.Copy(io.Discard, out)
		close(s.drained)
	}()
	if s.base == "" {
		s.stop()
		return nil, 0, errors.New("archive server exited before serving")
	}
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/query?from=0s&to=1s")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("archive server at %s never answered", s.base)
		}
		time.Sleep(time.Millisecond)
	}
}

// usage is what the kernel accounted to an exited process.
type usage struct {
	cpuS     float64 // user plus system seconds
	maxRSSMB float64
}

func usageOf(ps *os.ProcessState) (usage, error) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, errors.New("no rusage for child process")
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpuS: cpu.Seconds(), maxRSSMB: float64(ru.Maxrss) / 1024}, nil // Maxrss is in KiB
}

// stop kills the server, waits for it, and returns its resource usage.
func (s *server) stop() (usage, error) {
	s.cmd.Process.Kill()
	<-s.drained
	s.cmd.Wait()
	return usageOf(s.cmd.ProcessState)
}

// scrape reads the server's /metrics by Prometheus name, summing label
// sets.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[s.Name] += s.Value
	}
	return out, nil
}

// httpResult is what a request's check needs, kept small: JSON bodies,
// and for /wav only the parsed header and the recovered-chunk check.
type httpResult struct {
	ok      bool // 200 and a parsable body
	status  int
	body    []byte
	samples int
	rate    int
	holeOK  int // -1 not checked, 0 wrong bytes, 1 right bytes
}

func doRequest(ctx context.Context, client *http.Client, base string, o *op, r *httpResult) error {
	method, body := http.MethodGet, io.Reader(nil)
	switch o.kind {
	case "ingest":
		method, body = http.MethodPost, bytes.NewReader(o.batch.body)
	case "compact":
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(ctx, method, base+o.path(), body)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", method, o.path(), resp.StatusCode)
	}
	r.ok = true
	if o.kind != "wav" {
		r.body = data
		return nil
	}
	samples, rate, err := wav.Read(bytes.NewReader(data))
	if err != nil {
		r.ok = false
		return err
	}
	r.samples, r.rate, r.holeOK = len(samples), rate, holeCheck(o.file, samples)
	return nil
}

// holeCheck compares the stitched samples where the withheld chunk lies
// with the chunk's own bytes: only erasure decoding can have put them
// there. Edge samples are skipped (timestamp rounding), and so are holes
// another recorder's earlier-starting chunk covers.
func holeCheck(f *cfile, samples []byte) int {
	h := f.hole
	if h == nil || len(h.Data) < 3 {
		return -1
	}
	for _, c := range f.chunks {
		if c.Start < h.End && c.End > h.Start && c.Start <= h.Start {
			return -1
		}
	}
	off := int(h.Start.Sub(f.chunks[0].Start).Seconds() * mote.DefaultSampleRate)
	n := len(h.Data)
	if off < 0 || off+n > len(samples) {
		return 0
	}
	if bytes.Equal(samples[off+1:off+n-1], h.Data[1:n-1]) {
		return 1
	}
	return 0
}

// checkRun verifies every answer of the run against what the generator
// had acknowledged as ingested when the request was sent, allowing any
// state an ingest still in flight could have produced.
func checkRun(c *corpus, plan []*op, outs []outcome, results []httpResult, res *stationResult) {
	acked := map[int]time.Duration{}   // batch -> response time
	started := map[int]time.Duration{} // batch -> request start
	failedBatch := map[int]bool{}
	for i, o := range plan {
		if o.batch == nil {
			continue
		}
		started[o.batch.id] = outs[i].Start
		if outs[i].Err == nil && results[i].ok {
			acked[o.batch.id] = outs[i].Done
		} else {
			failedBatch[o.batch.id] = true
		}
	}
	// candidates lists the states f could be in during [start, done].
	candidates := func(f *cfile, start, done time.Duration) []fileState {
		var sure, doubt []int
		for _, b := range f.touch {
			if t, ok := acked[b]; ok && t < start {
				sure = append(sure, b)
			} else if s, ok := started[b]; ok && s <= done {
				doubt = append(doubt, b)
			}
		}
		if len(doubt) > 6 {
			doubt = doubt[:6]
		}
		var out []fileState
		for mask := 0; mask < 1<<len(doubt); mask++ {
			in := map[int]bool{}
			for _, b := range sure {
				in[b] = true
			}
			for k, b := range doubt {
				if mask&(1<<k) != 0 {
					in[b] = true
				}
			}
			out = append(out, f.stateAfter(func(b int) bool { return in[b] }))
		}
		return out
	}
	for i, o := range plan {
		res.attempted++
		r := &results[i]
		if outs[i].Err != nil || !r.ok {
			res.fail("%s %s: %v (status %d)", o.kind, o.path(), outs[i].Err, r.status)
			continue
		}
		start, done := outs[i].Start, outs[i].Done
		var err error
		switch o.kind {
		case "ingest":
			err = checkIngest(o.batch, r.body)
		case "compact":
			var rep archive.CompactReport
			err = json.Unmarshal(r.body, &rep)
		case "file":
			err = checkFile(o.file, r.body, candidates(o.file, start, done))
		case "gaps":
			err = checkGaps(o.file, r.body, candidates(o.file, start, done))
		case "wav":
			err = checkWav(o.file, r, candidates(o.file, start, done))
		case "query":
			err = checkQuery(c, o, r.body, func(f *cfile) []fileState { return candidates(f, start, done) })
		}
		if err != nil {
			res.fail("%s %s: %v", o.kind, o.path(), err)
		}
	}
}

func checkIngest(b *batch, body []byte) error {
	var rep struct {
		Added      int `json:"added"`
		Duplicates int `json:"duplicates"`
		Superseded int `json:"superseded"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	if rep.Added != b.added || rep.Duplicates != b.dups || rep.Superseded != b.super {
		return fmt.Errorf("report added/dups/superseded %d/%d/%d, want %d/%d/%d",
			rep.Added, rep.Duplicates, rep.Superseded, b.added, b.dups, b.super)
	}
	return nil
}

func checkFile(f *cfile, body []byte, cands []fileState) error {
	var got struct {
		ID        flash.FileID `json:"id"`
		Chunks    int          `json:"chunks"`
		ChunkList []struct {
			Origin   int32   `json:"origin"`
			Seq      uint32  `json:"seq"`
			StartSec float64 `json:"start_s"`
			EndSec   float64 `json:"end_s"`
			Bytes    int     `json:"bytes"`
		} `json:"chunk_list"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.ID != f.id || got.Chunks != len(got.ChunkList) {
		return fmt.Errorf("file %d answered as %d with %d/%d chunks", f.id, got.ID, got.Chunks, len(got.ChunkList))
	}
next:
	for _, st := range cands {
		if len(st) != len(got.ChunkList) {
			continue
		}
		for i, c := range st {
			g := got.ChunkList[i]
			if g.Origin != c.Origin || g.Seq != c.Seq || g.StartSec != c.Start.Seconds() ||
				g.EndSec != c.End.Seconds() || g.Bytes != len(c.Data) {
				continue next
			}
		}
		return nil
	}
	return fmt.Errorf("chunk list of %d entries matches no acknowledged state", len(got.ChunkList))
}

func checkGaps(f *cfile, body []byte, cands []fileState) error {
	var got struct {
		Gaps []struct {
			StartSec float64 `json:"start_s"`
			EndSec   float64 `json:"end_s"`
		} `json:"gaps"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
next:
	for _, st := range cands {
		want := st.gaps()
		if len(want) != len(got.Gaps) {
			continue
		}
		for i, g := range want {
			if got.Gaps[i].StartSec != g[0].Seconds() || got.Gaps[i].EndSec != g[1].Seconds() {
				continue next
			}
		}
		return nil
	}
	return fmt.Errorf("%d gaps match no acknowledged state", len(got.Gaps))
}

func checkWav(f *cfile, r *httpResult, cands []fileState) error {
	if r.rate != int(mote.DefaultSampleRate) {
		return fmt.Errorf("sample rate %d", r.rate)
	}
	if r.holeOK == 0 {
		return errors.New("samples of the parity-recovered chunk are wrong")
	}
	for _, st := range cands {
		if st.samples() == r.samples {
			return nil
		}
	}
	return fmt.Errorf("%d samples match no acknowledged state", r.samples)
}

func checkQuery(c *corpus, o *op, body []byte, cands func(*cfile) []fileState) error {
	var got []struct {
		ID flash.FileID `json:"id"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	in := map[flash.FileID]bool{}
	for _, g := range got {
		in[g.ID] = true
	}
	for _, f := range c.files {
		var yes, no bool
		for _, st := range f.candStates(cands) {
			if st.matches(o.from, o.to, o.origins) {
				yes = true
			} else {
				no = true
			}
		}
		if yes && !no && !in[f.id] {
			return fmt.Errorf("file %d missing", f.id)
		}
		if no && !yes && in[f.id] {
			return fmt.Errorf("file %d listed but does not match", f.id)
		}
		delete(in, f.id)
	}
	if len(in) > 0 {
		return fmt.Errorf("%d unknown files listed", len(in))
	}
	return nil
}

// candStates avoids recomputing the preload state of files no run
// batch touches, which is most of them.
func (f *cfile) candStates(cands func(*cfile) []fileState) []fileState {
	if len(f.touch) > 0 {
		return cands(f)
	}
	if f.pre == nil {
		f.pre = []fileState{f.stateAfter(func(int) bool { return false })}
	}
	return f.pre
}

// copyDir copies a flat archive directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
