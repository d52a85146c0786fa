package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/trace"
	"enviromic/internal/wav"
)

// replayStats is what one in-process replay of the plan measured.
type replayStats struct {
	wall       time.Duration
	openS      float64
	fileCold   []time.Duration
	fileWarm   []time.Duration
	decode     []time.Duration // FileErasure on files with archived parity
	direct     map[string][]time.Duration
	segWritten int64
	payload    int64
	evictions  int64
	mismatches []string
}

// replay runs the plan's requests one after another as direct calls
// into the archive, trace and wav packages against the archive at dir,
// recording a span around each call when rec is non-nil.
func replay(dir string, c *corpus, plan []*op, rec *spanRecorder) (*replayStats, error) {
	st := &replayStats{direct: map[string][]time.Duration{}}
	t0 := time.Now()
	s, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	st.openS = time.Since(t0).Seconds()
	defer s.Close()
	hits := s.Metrics().Counter("enviromic_archive_cache_hits_total", "")
	sizes := func() []int64 {
		segs, _ := filepath.Glob(filepath.Join(dir, "shard-*.seg"))
		out := make([]int64, len(segs))
		for i, p := range segs {
			if fi, err := os.Stat(p); err == nil {
				out[i] = fi.Size()
			}
		}
		return out
	}
	var buf bytes.Buffer
	start := time.Now()
	for i, o := range plan {
		var before []int64
		if o.kind == "ingest" || o.kind == "compact" {
			before = sizes()
		}
		t := time.Now()
		root := rec.begin("req."+o.kind, i, -1)
		switch o.kind {
		case "query":
			var origins map[int32]bool
			if len(o.origins) > 0 {
				origins = map[int32]bool{}
				for _, v := range o.origins {
					origins[v] = true
				}
			}
			sp := rec.begin("archive.Query", i, root)
			s.Query(o.from, o.to, origins)
			rec.end(sp)
		case "gaps":
			sp := rec.begin("archive.Gaps", i, root)
			_, err = s.Gaps(o.file.id, 0)
			rec.end(sp)
		case "file":
			h0 := hits.Value()
			sp := rec.begin("archive.File", i, root)
			ft := time.Now()
			_, err = s.File(o.file.id)
			d := time.Since(ft)
			rec.end(sp)
			if hits.Value() > h0 {
				st.fileWarm = append(st.fileWarm, d)
			} else {
				st.fileCold = append(st.fileCold, d)
			}
		case "wav":
			_, parity := c.byID[o.file.id|erasure.ParityFileBit]
			if parity {
				// Reading both files first leaves FileErasure with only
				// the decode to do: its time is FileErasure minus File.
				for _, id := range []flash.FileID{o.file.id, o.file.id | erasure.ParityFileBit} {
					sp := rec.begin("archive.File", i, root)
					s.File(id)
					rec.end(sp)
				}
			}
			sp := rec.begin("archive.FileErasure", i, root)
			ft := time.Now()
			f, _, ferr := s.FileErasure(o.file.id)
			d := time.Since(ft)
			rec.end(sp)
			err = ferr
			if err != nil {
				break
			}
			if parity {
				st.decode = append(st.decode, d)
			}
			sp = rec.begin("trace.Stitch", i, root)
			samples := trace.Stitch(f, mote.DefaultSampleRate)
			rec.end(sp)
			buf.Reset()
			sp = rec.begin("wav.Write", i, root)
			err = wav.Write(&buf, samples, int(mote.DefaultSampleRate))
			rec.end(sp)
		case "ingest":
			sp := rec.begin("archive.Ingest", i, root)
			rep, ierr := s.Ingest(o.batch.chunks)
			rec.end(sp)
			err = ierr
			if err == nil && (rep.Added != o.batch.added || rep.Duplicates != o.batch.dups || rep.Superseded != o.batch.super) {
				st.mismatches = append(st.mismatches, fmt.Sprintf("replayed ingest %d: added/dups/superseded %d/%d/%d, want %d/%d/%d",
					o.batch.id, rep.Added, rep.Duplicates, rep.Superseded, o.batch.added, o.batch.dups, o.batch.super))
			}
			st.payload += int64(o.batch.payload)
		case "compact":
			sp := rec.begin("archive.Compact", i, root)
			_, err = s.Compact()
			rec.end(sp)
		}
		rec.end(root)
		if cl := o.class(); cl != "" {
			st.direct[cl] = append(st.direct[cl], time.Since(t))
		}
		if err != nil {
			st.mismatches = append(st.mismatches, fmt.Sprintf("replayed %s %s: %v", o.kind, o.path(), err))
			err = nil
		}
		if before != nil {
			after := sizes()
			for k := range after {
				switch {
				case k >= len(before):
				case after[k] > before[k]:
					st.segWritten += after[k] - before[k]
				case after[k] < before[k]:
					st.segWritten += after[k] // the shard was rewritten whole
				}
			}
		}
	}
	st.wall = time.Since(start)
	st.evictions = s.Stats().Cache.Evictions
	return st, nil
}

// stationLayers fills the traced run's station per-layer metrics: server
// counters from the /metrics scrapes around the HTTP run, call latencies
// from the in-process replay, and the generator's own health.
func stationLayers(res *stationResult, c *corpus, plan []*op, outs []outcome,
	before, after map[string]float64, dirs []string, cfg stationConfig) error {
	set := func(name string, v float64, n int) {
		res.layer[name] = v
		res.layerSamples[name] = n
	}
	d := func(name string) float64 { return after[name] - before[name] }
	hits, misses := d("enviromic_archive_cache_hits_total"), d("enviromic_archive_cache_misses_total")
	set("archive.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	joins, leads := d("enviromic_archive_flight_joins_total"), d("enviromic_archive_flight_leads_total")
	set("archive.flight_join_ratio", ratio(joins, joins+leads), int(joins+leads))
	groups := d("enviromic_archive_group_commits_total")
	set("archive.group_commits", groups, 1)
	set("archive.batch_chunks_mean", ratio(d("enviromic_archive_ingest_chunks_total")+d("enviromic_archive_ingest_superseded_total"), groups), int(groups))
	set("archive.checkpoints", d("enviromic_archive_checkpoint_writes_total"), 1)
	set("archive.compactions", d("enviromic_archive_compactions_total"), 1)
	set("archive.reclaimed_bytes", d("enviromic_archive_compact_reclaimed_bytes_total"), 1)
	set("archive.replayed_chunks", before["enviromic_archive_replayed_chunks_total"], 1)

	late, queued := genHealth(outs)
	set("bench.gen_late_ms_max", late, len(outs))
	set("bench.client_queue_ms_p99", queued, len(outs))

	plain, err := replay(dirs[0], c, plan, nil)
	if err != nil {
		return err
	}
	rec := newSpanRecorder()
	tr, err := replay(dirs[1], c, plan, rec)
	if err != nil {
		return err
	}
	for _, m := range append(plain.mismatches, tr.mismatches...) {
		res.fail("%s", m)
	}
	res.attempted += 2 * len(plan)
	if err := rec.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.station.spans.jsonl", cfg.workload, cfg.seed))); err != nil {
		return err
	}
	if cfg.workload == "station" {
		set("bench.trace_overhead", ratio(tr.wall.Seconds(), plain.wall.Seconds()), 1)
	}
	pct := func(name string, ds []time.Duration, q float64, scale float64) {
		v := 0.0
		if len(ds) > 0 {
			v = quantile(msOf(ds), q) * scale
		}
		set(name, v, len(ds))
	}
	pct("archive.query_ms_p50", rec.durations("archive.Query"), 0.50, 1)
	pct("archive.query_ms_p99", rec.durations("archive.Query"), 0.99, 1)
	pct("archive.gaps_ms_p99", rec.durations("archive.Gaps"), 0.99, 1)
	// Cold and warm are split on the untraced replay, whose timings the
	// span bookkeeping does not touch.
	pct("archive.file_cold_ms_p50", plain.fileCold, 0.50, 1)
	pct("archive.file_cold_ms_p99", plain.fileCold, 0.99, 1)
	pct("archive.file_warm_us_p50", plain.fileWarm, 0.50, 1000)
	set("archive.cache_evictions", float64(plain.evictions), 1)
	pct("erasure.decode_ms_p99", plain.decode, 0.99, 1)
	pct("trace.stitch_ms_p50", rec.durations("trace.Stitch"), 0.50, 1)
	pct("wav.encode_ms_p50", rec.durations("wav.Write"), 0.50, 1)
	pct("archive.ingest_ms_p50", rec.durations("archive.Ingest"), 0.50, 1)
	pct("archive.ingest_ms_p99", rec.durations("archive.Ingest"), 0.99, 1)
	set("archive.write_amp", ratio(float64(plain.segWritten), float64(plain.payload)), 1)
	compacts := rec.durations("archive.Compact")
	pct("archive.compact_s", compacts, 0.50, 1e-3)
	set("archive.open_s", plain.openS, 1)
	for _, cl := range classes {
		httpP50 := quantile(res.latency[cl], 0.50)
		direct := msOf(plain.direct[cl])
		set("http."+cl+"_overhead_ms_p50", httpP50-quantile(direct, 0.50), len(direct))
	}
	return nil
}
