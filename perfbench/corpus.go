package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/sim"
)

// gapTolerance is the archive's default gap tolerance, which /gaps and
// the listings use when a request names none.
const gapTolerance = 500 * time.Millisecond

// cfile is one archived file as the generator knows it: every chunk it
// will ever deliver, at full length, and how the station sees it over
// time. Parity pseudo-files (ID with erasure.ParityFileBit) hold the
// carrier chunks of another file's dispersal group.
type cfile struct {
	id      flash.FileID
	chunks  []*flash.Chunk       // sorted by (Start, Origin, Seq)
	trunc   map[int]*flash.Chunk // preloaded at half length, superseded during the run
	hole    *flash.Chunk         // withheld data chunk that archived parity recovers
	isNew   bool                 // first delivered during the run, not preloaded
	touch   []int                // run batches carrying chunks of this file, in plan order
	variant map[int]map[int]bool // batch -> chunk indices it delivers at full length
	pre     []fileState          // cached preload state, for files no batch touches
}

// corpus is a workload's station data: the files, what the preload
// ingests, and which files reads and the ingest stream draw on.
type corpus struct {
	files    []*cfile
	byID     map[flash.FileID]*cfile
	readable []*cfile // preloaded data files, most popular first
	newFiles []*cfile
	from, to sim.Time // time span the files cover
}

var chunkSpan = samplesDur(flash.PayloadSize)

func samplesDur(n int) time.Duration {
	return time.Duration(float64(n) / mote.DefaultSampleRate * float64(time.Second))
}

// fillData writes deterministic pseudo-audio for one chunk.
func fillData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// syntheticCorpus builds the station workload's files from the seed:
// short indoor-like events and minute-long vehicle passes, each
// recorded by a relay of 2-4 motes with overlapping handoffs, some with
// deliberate gaps. newCount short files are held back for the run's
// ingest stream.
func syntheticCorpus(seed int64, preloaded, newCount int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	const timeline = 8 * time.Hour
	var files []*cfile
	mk := func(id flash.FileID, dur time.Duration, gaps bool) *cfile {
		f := &cfile{id: id}
		start := sim.At(time.Duration(rng.Int63n(int64(timeline))))
		nOrig := 2 + rng.Intn(3)
		perm := rng.Perm(400)
		segEnd := start
		for k := 0; k < nOrig; k++ {
			origin := int32(perm[k] + 1)
			segLen := dur / time.Duration(nOrig)
			// Handoffs overlap by up to two chunks: both recorders hold
			// the seam, as in the paper's task reassignment.
			segStart := segEnd
			if k > 0 {
				segStart = segEnd.Add(-time.Duration(rng.Intn(3)) * chunkSpan)
			}
			n := int(segLen / chunkSpan)
			if n < 2 {
				n = 2
			}
			for s := 0; s < n; s++ {
				c := &flash.Chunk{File: id, Origin: origin, Seq: uint32(s),
					Start: segStart.Add(time.Duration(s) * chunkSpan)}
				c.Data = fillData(rng, flash.PayloadSize)
				c.End = c.Start.Add(chunkSpan)
				f.chunks = append(f.chunks, c)
			}
			segEnd = segStart.Add(time.Duration(n) * chunkSpan)
		}
		if gaps && len(f.chunks) > 40 && rng.Intn(2) == 0 {
			// Drop a run of 8-20 chunks (0.7-1.7 s) inside the file: a
			// stretch no mote kept.
			run := 8 + rng.Intn(13)
			at := 1 + rng.Intn(len(f.chunks)-run-2)
			f.chunks = append(f.chunks[:at], f.chunks[at+run:]...)
		}
		sortChunks(f.chunks)
		return f
	}
	// Durations are evenly spread over their ranges and shuffled, so
	// every seed archives the same amount of audio.
	spread := func(n int, lo, hi time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = lo + time.Duration((float64(i)+0.5)/float64(n)*float64(hi-lo))
		}
		return out
	}
	long := preloaded * 15 / 100
	durs := append(spread(preloaded-long, time.Second, 8*time.Second), spread(long, 20*time.Second, 90*time.Second)...)
	rng.Shuffle(len(durs), func(i, j int) { durs[i], durs[j] = durs[j], durs[i] })
	for i, dur := range durs {
		files = append(files, mk(flash.FileID(i+1), dur, true))
	}
	for i, dur := range spread(newCount, time.Second, 6*time.Second) {
		f := mk(flash.FileID(preloaded+i+1), dur, false)
		f.isNew = true
		files = append(files, f)
	}
	return shapeCorpus(files, rng)
}

// simCorpus loads a sim workload's reassembled recordings and holds a
// quarter of the files back for the run's ingest stream.
func simCorpus(path string, seed int64) (*corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	chunks, err := archive.DecodeFrames(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", path, err)
	}
	byID := map[flash.FileID]*cfile{}
	var files []*cfile
	for _, c := range chunks {
		f := byID[c.File]
		if f == nil {
			f = &cfile{id: c.File}
			byID[c.File] = f
			files = append(files, f)
		}
		f.chunks = append(f.chunks, c)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(files))[:len(files)/4] {
		files[i].isNew = true
	}
	for _, f := range files {
		sortChunks(f.chunks)
	}
	return shapeCorpus(files, rng), nil
}

// shapeCorpus adds what exercises the station beyond plain reads:
// parity groups with a withheld chunk on about an eighth of the
// preloaded files, and half-length copies of a fifth of the chunks of
// another tenth, to be superseded by full copies during the run.
func shapeCorpus(files []*cfile, rng *rand.Rand) *corpus {
	c := &corpus{byID: map[flash.FileID]*cfile{}}
	code, err := erasure.Cached(6, 4)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	var parity []*cfile
	for _, f := range files {
		if f.isNew {
			c.newFiles = append(c.newFiles, f)
			continue
		}
		switch r := rng.Intn(100); {
		case r < 12:
			if p := addParity(f, code, rng); p != nil {
				parity = append(parity, p)
			}
		case r < 22:
			f.trunc = map[int]*flash.Chunk{}
			for i, ch := range f.chunks {
				if rng.Intn(5) == 0 && len(ch.Data) > 1 {
					t := *ch
					t.Data = ch.Data[:len(ch.Data)/2]
					if e := t.Start.Add(samplesDur(len(t.Data))); e < t.End {
						t.End = e
					}
					f.trunc[i] = &t
				}
			}
		}
		c.readable = append(c.readable, f)
	}
	c.files = append(append([]*cfile(nil), files...), parity...)
	for _, f := range c.files {
		c.byID[f.id] = f
		f.variant = map[int]map[int]bool{}
		if len(f.chunks) > 0 {
			if c.from == 0 || f.chunks[0].Start < c.from {
				c.from = f.chunks[0].Start
			}
			if e := fileEnd(f.chunks); e > c.to {
				c.to = e
			}
		}
	}
	rng.Shuffle(len(c.readable), func(i, j int) { c.readable[i], c.readable[j] = c.readable[j], c.readable[i] })
	return c
}

// addParity erasure-codes one recorder's run of 6-16 consecutive chunks
// of f, withholds an interior chunk of the run, and returns the parity
// pseudo-file carrying the group's fragments.
func addParity(f *cfile, code *erasure.Code, rng *rand.Rand) *cfile {
	byOrigin := map[int32][]int{}
	for i, ch := range f.chunks {
		byOrigin[ch.Origin] = append(byOrigin[ch.Origin], i)
	}
	origins := make([]int32, 0, len(byOrigin))
	for o := range byOrigin {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		idx := byOrigin[o]
		sort.Slice(idx, func(a, b int) bool { return f.chunks[idx[a]].Seq < f.chunks[idx[b]].Seq })
		// Longest run of consecutive sequence numbers.
		best, bestLen := 0, 1
		for s, l := 0, 1; s+l <= len(idx); {
			if s+l < len(idx) && f.chunks[idx[s+l]].Seq == f.chunks[idx[s+l-1]].Seq+1 {
				l++
				continue
			}
			if l > bestLen {
				best, bestLen = s, l
			}
			s, l = s+l, 1
		}
		if bestLen < 6 {
			continue
		}
		if bestLen > 16 {
			bestLen = 16
		}
		run := idx[best : best+bestLen]
		group := make([]*flash.Chunk, len(run))
		for i, j := range run {
			group[i] = f.chunks[j]
		}
		g := erasure.Group{File: f.id, Origin: o, FirstSeq: group[0].Seq, Count: uint32(len(group)),
			Start: group[0].Start, End: fileEnd(group), N: code.N(), K: code.K()}
		blobs, err := erasure.EncodeParity(code, g, group)
		if err != nil {
			return nil
		}
		p := &cfile{id: f.id | erasure.ParityFileBit}
		for j, blob := range blobs {
			p.chunks = append(p.chunks, erasure.Carriers(g, g.K+j, blob)...)
		}
		sortChunks(p.chunks)
		holeIdx := run[1+rng.Intn(len(run)-2)]
		f.hole = f.chunks[holeIdx]
		f.chunks = append(f.chunks[:holeIdx:holeIdx], f.chunks[holeIdx+1:]...)
		return p
	}
	return nil
}

func fileEnd(chunks []*flash.Chunk) sim.Time {
	var end sim.Time
	for _, c := range chunks {
		if c.End > end {
			end = c.End
		}
	}
	return end
}

// sortChunks orders chunks the way the archive lists them.
func sortChunks(cs []*flash.Chunk) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
}

// preloadChunks is what the preload ingests: every chunk of the
// preloaded files, truncated ones at half length.
func (c *corpus) preloadChunks() []*flash.Chunk {
	var out []*flash.Chunk
	for _, f := range c.files {
		if f.isNew {
			continue
		}
		for i, ch := range f.chunks {
			if t := f.trunc[i]; t != nil {
				ch = t
			}
			out = append(out, ch)
		}
	}
	return out
}

// fileState is one file's archived chunks after some set of batches.
type fileState []*flash.Chunk

// stateAfter returns f's archived chunks once the preload and the run
// batches for which applied returns true have landed.
func (f *cfile) stateAfter(applied func(batch int) bool) fileState {
	full := map[int]bool{}
	for _, b := range f.touch {
		if applied(b) {
			for i := range f.variant[b] {
				full[i] = true
			}
		}
	}
	var out fileState
	for i, ch := range f.chunks {
		switch {
		case full[i]:
			out = append(out, ch)
		case f.isNew:
			// not delivered yet
		case f.trunc[i] != nil:
			out = append(out, f.trunc[i])
		default:
			out = append(out, ch)
		}
	}
	return out
}

func (s fileState) span() (sim.Time, sim.Time) {
	if len(s) == 0 {
		return 0, 0
	}
	return s[0].Start, fileEnd(s)
}

// gaps mirrors the archive's definition: a time-major sweep reporting
// uncovered stretches longer than the tolerance.
func (s fileState) gaps() [][2]sim.Time {
	var out [][2]sim.Time
	if len(s) == 0 {
		return nil
	}
	cursor := s[0].End
	for _, c := range s[1:] {
		if c.Start.Sub(cursor) > gapTolerance {
			out = append(out, [2]sim.Time{cursor, c.Start})
		}
		if c.End > cursor {
			cursor = c.End
		}
	}
	return out
}

// matches reports whether /query?from&to&origins should list the file.
func (s fileState) matches(from, to sim.Time, origins []int32) bool {
	if len(s) == 0 {
		return false
	}
	start, end := s.span()
	if (from != 0 || to != 0) && (end <= from || (to != 0 && start >= to)) {
		return false
	}
	if len(origins) == 0 {
		return true
	}
	for _, c := range s {
		for _, o := range origins {
			if c.Origin == o {
				return true
			}
		}
	}
	return false
}

// samples is the /wav sample count for the state: the stitched span at
// the archive's sample rate.
func (s fileState) samples() int {
	start, end := s.span()
	return int(end.Sub(start).Seconds() * mote.DefaultSampleRate)
}
