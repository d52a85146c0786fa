package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

const (
	// nominalRate is the offered load of the timed phase, in requests
	// per second: low enough that a 2-CPU host serves it without a
	// growing backlog, high enough that in a 12 s phase every endpoint
	// class collects over a thousand samples, so its p99 has ten beyond
	// it.
	nominalRate = 400.0
	// compactEvery spaces the scheduled POST /compact calls.
	compactEvery = time.Second
	// dupRun bounds the re-delivered duplicate chunks per tour batch.
	dupRun = 24
)

// classes are the endpoint classes latency is reported for.
var classes = []string{"index", "file", "wav", "ingest"}

// op is one planned request.
type op struct {
	kind    string // query, gaps, file, wav, ingest, compact
	due     time.Duration
	file    *cfile
	from    sim.Time
	to      sim.Time
	origins []int32
	batch   *batch
}

func (o *op) class() string {
	switch o.kind {
	case "query", "gaps":
		return "index"
	case "file", "wav", "ingest":
		return o.kind
	}
	return ""
}

func (o *op) path() string {
	switch o.kind {
	case "query":
		p := fmt.Sprintf("/query?from=%dms&to=%dms", o.from/sim.Time(time.Millisecond), o.to/sim.Time(time.Millisecond))
		if len(o.origins) > 0 {
			s := make([]string, len(o.origins))
			for i, v := range o.origins {
				s[i] = fmt.Sprint(v)
			}
			p += "&origins=" + strings.Join(s, ",")
		}
		return p
	case "gaps":
		return fmt.Sprintf("/files/%d/gaps", o.file.id)
	case "file":
		return fmt.Sprintf("/files/%d", o.file.id)
	case "wav":
		return fmt.Sprintf("/files/%d/wav", o.file.id)
	case "ingest":
		return "/ingest"
	}
	return "/compact"
}

// batch is one mule-tour ingest: a piece of a new file, a re-delivered
// run of archived chunks, and full copies of chunks archived short.
type batch struct {
	id                 int // run batch number, from 1
	chunks             []*flash.Chunk
	body               []byte
	added, dups, super int
	payload            int // payload bytes of the added and superseding chunks
}

// buildPlan lays out the nominal phase: requests at nominalRate for
// dur, mixing index lookups, file and wav reads of Zipf-popular files,
// and tour ingests, with a compaction every compactEvery. The mix, the
// Zipf skew and the ingest and compaction rates are assumptions, not
// measurements; README.md lists where each figure comes from.
func buildPlan(c *corpus, seed int64, dur time.Duration) ([]*op, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(len(c.readable)-1))
	pick := func() *cfile { return c.readable[zipf.Uint64()] }

	// New files arrive in two halves, interleaved with other files'
	// halves, so a file is partly archived for a while.
	type piece struct {
		f      *cfile
		lo, hi int
	}
	var pieces []piece
	for i, f := range c.newFiles {
		h := len(f.chunks) / 2
		pieces = append(pieces, piece{f, 0, h})
		if i > 0 {
			g := c.newFiles[i-1]
			pieces = append(pieces, piece{g, len(g.chunks) / 2, len(g.chunks)})
		}
	}
	if n := len(c.newFiles); n > 0 {
		g := c.newFiles[n-1]
		pieces = append(pieces, piece{g, len(g.chunks) / 2, len(g.chunks)})
	}
	var supersede []*cfile
	for _, f := range c.readable {
		if len(f.trunc) > 0 {
			supersede = append(supersede, f)
		}
	}

	var ops []*op
	var nextSupersede time.Duration
	n := int(dur.Seconds() * nominalRate)
	nb := 0
	for i := 0; i < n; i++ {
		o := &op{due: time.Duration(float64(i) / nominalRate * float64(time.Second))}
		switch r := rng.Float64(); {
		case r < 0.13:
			o.kind = "query"
			span := float64(c.to - c.from)
			from := c.from + sim.Time(rng.Float64()*span)
			w := time.Duration(math.Exp(math.Log(2)+rng.Float64()*math.Log(60)) * float64(time.Second))
			// Whole milliseconds: the URL carries them exactly.
			const msT = sim.Time(time.Millisecond)
			o.from = from / msT * msT
			o.to = (from.Add(w)/msT + 1) * msT
			if rng.Intn(2) == 0 {
				f := pick()
				o.origins = []int32{f.chunks[0].Origin}
				if last := f.chunks[len(f.chunks)-1].Origin; last != o.origins[0] {
					o.origins = append(o.origins, last)
				}
			}
		case r < 0.26:
			o.kind, o.file = "gaps", pick()
		case r < 0.50:
			o.kind, o.file = "file", pick()
		case r < 0.75:
			o.kind, o.file = "wav", pick()
		default:
			nb++
			b := &batch{id: nb}
			deliver := func(f *cfile, idx []int) {
				if len(idx) == 0 {
					return
				}
				f.touch = append(f.touch, nb)
				f.variant[nb] = map[int]bool{}
				for _, i := range idx {
					f.variant[nb][i] = true
					b.chunks = append(b.chunks, f.chunks[i])
					b.payload += len(f.chunks[i].Data)
				}
			}
			if len(pieces) > 0 {
				p := pieces[0]
				pieces = pieces[1:]
				var idx []int
				for i := p.lo; i < p.hi; i++ {
					idx = append(idx, i)
				}
				deliver(p.f, idx)
				b.added += len(idx)
			}
			// One file's full copies per compaction interval, in the first
			// batch after each compaction: every compaction then rewrites
			// exactly one shard.
			if o.due >= nextSupersede && len(supersede) > 0 {
				nextSupersede += compactEvery
				f := supersede[0]
				supersede = supersede[1:]
				idx := make([]int, 0, len(f.trunc))
				for i := range f.trunc {
					idx = append(idx, i)
				}
				sort.Ints(idx)
				deliver(f, idx)
				b.super += len(idx)
			}
			if len(b.chunks) == 0 || rng.Intn(2) == 0 {
				f := c.readable[rng.Intn(len(c.readable))]
				var whole []*flash.Chunk
				for i, ch := range f.chunks {
					if f.trunc[i] == nil {
						whole = append(whole, ch)
					}
				}
				if len(whole) > 0 {
					at := rng.Intn(len(whole))
					end := at + 1 + rng.Intn(dupRun)
					if end > len(whole) {
						end = len(whole)
					}
					b.chunks = append(b.chunks, whole[at:end]...)
					b.dups += end - at
				}
			}
			body, err := archive.EncodeFrames(b.chunks)
			if err != nil {
				return nil, err
			}
			b.body = body
			o.kind, o.batch = "ingest", b
		}
		ops = append(ops, o)
	}
	for t := compactEvery; t < dur; t += compactEvery {
		ops = append(ops, &op{kind: "compact", due: t})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops, nil
}
