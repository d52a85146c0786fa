package archive

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// TestQueryConcurrentWithCompact is the regression test for reads
// racing compaction: queries, gap listings, and reassemblies whose
// intervals straddle compaction epochs must keep returning consistent
// results while Compact repeatedly swaps segments under them. Run with
// -race; before the epoch guard a reader could follow stale offsets
// into a freshly compacted segment.
func TestQueryConcurrentWithCompact(t *testing.T) {
	// CacheBytes<0 disables the reassembly cache so every File call
	// actually reads the segment, maximizing reads that straddle a swap.
	s := openTest(t, t.TempDir(), Options{Shards: 2, CacheBytes: -1, AutoCompactBytes: -1})
	defer s.Close()

	const files = 4
	const seqs = 8
	seed := make([]*flash.Chunk, 0, files*seqs)
	for f := flash.FileID(1); f <= files; f++ {
		for seq := uint32(0); seq < seqs; seq++ {
			seed = append(seed, mkChunk(f, int32(f), seq, float64(seq), float64(seq+1)))
		}
	}
	mustIngest(t, s, seed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var compactions atomic.Int64

	// Superseder: keeps replacing chunks with strictly longer payloads
	// so every compaction pass has dead frames to reclaim and every
	// swap rewrites offsets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]*flash.Chunk, 0, files)
			for f := flash.FileID(1); f <= files; f++ {
				c := mkChunk(f, int32(f), uint32(extra%seqs), float64(extra%seqs), float64(extra%seqs+1))
				c.Data = append(c.Data, make([]byte, extra%200)...)
				batch = append(batch, c)
			}
			if _, err := s.Ingest(batch); err != nil {
				t.Errorf("Ingest: %v", err)
				return
			}
			extra++
		}
	}()

	// Compactor: swap segments as fast as possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
			compactions.Add(1)
		}
	}()

	// Readers: interval queries straddling the whole span, gap
	// listings, listings, and full reassemblies. Every result must stay
	// internally consistent; File must never surface an epoch error.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from := sim.Time(int64(i%seqs) * int64(time.Second))
				to := from + sim.Time(3*time.Second)
				for _, fi := range s.Query(from, to, nil) {
					if fi.Chunks < seqs {
						t.Errorf("query saw file %d with %d chunks, want >= %d", fi.ID, fi.Chunks, seqs)
						return
					}
				}
				id := flash.FileID(r%files + 1)
				f, err := s.File(id)
				if err != nil {
					t.Errorf("File(%d): %v", id, err)
					return
				}
				if len(f.Chunks) < seqs {
					t.Errorf("File(%d) returned %d chunks, want >= %d", id, len(f.Chunks), seqs)
					return
				}
				if _, err := s.Gaps(id, 0); err != nil {
					t.Errorf("Gaps(%d): %v", id, err)
					return
				}
				if got := len(s.Files()); got != files {
					t.Errorf("Files() = %d entries, want %d", got, files)
					return
				}
			}
		}(r)
	}

	deadline := time.After(2 * time.Second)
	<-deadline
	close(stop)
	wg.Wait()
	if compactions.Load() == 0 {
		t.Fatalf("no compaction ran; test exercised nothing")
	}
}
