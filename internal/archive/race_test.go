package archive

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"enviromic/internal/flash"
	"enviromic/internal/sim"
)

// TestConcurrentIngestAndQuery is the -race stress test: several ingest
// goroutines (with overlapping chunk streams, so dedup contends) racing
// listings, interval queries, gap math, reassembly (cache churn), and
// stats. Correctness check at the end: every unique chunk landed exactly
// once.
func TestConcurrentIngestAndQuery(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4, CacheBytes: 1 << 20})
	defer s.Close()

	const (
		writers       = 4
		files         = 12
		seqsPerWriter = 40
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers hammer every query surface until writers finish.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Files()
				s.Query(sim.At(time.Duration(i%30)*time.Second), sim.At(time.Duration(i%30+5)*time.Second), map[int32]bool{int32(i % writers): true})
				s.Gaps(flash.FileID(i%files+1), 0)
				s.File(flash.FileID(i%files + 1))
				s.Stats()
			}
		}(r)
	}

	// Writers ingest interleaved batches; adjacent writers overlap on
	// origin (w and w-1 emit some identical (file, origin, seq) keys).
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < seqsPerWriter; seq++ {
				var batch []*flash.Chunk
				for f := 1; f <= files; f++ {
					batch = append(batch, mkChunk(flash.FileID(f), int32(w), uint32(seq), float64(seq), float64(seq+1)))
					if w > 0 {
						// Duplicate of the previous writer's chunk.
						batch = append(batch, mkChunk(flash.FileID(f), int32(w-1), uint32(seq), float64(seq), float64(seq+1)))
					}
				}
				if _, err := s.Ingest(batch); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	wantChunks := files * writers * seqsPerWriter // unique (file, origin, seq) triples
	if st.Chunks != wantChunks {
		t.Fatalf("chunks = %d, want %d", st.Chunks, wantChunks)
	}
	for f := 1; f <= files; f++ {
		file, err := s.File(flash.FileID(f))
		if err != nil {
			t.Fatalf("File(%d): %v", f, err)
		}
		if len(file.Chunks) != writers*seqsPerWriter {
			t.Fatalf("file %d has %d chunks, want %d", f, len(file.Chunks), writers*seqsPerWriter)
		}
	}
}

// TestConcurrentHTTP drives the handler from parallel clients while
// ingest runs underneath — the service-level companion to the store
// stress test.
func TestConcurrentHTTP(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	defer s.Close()
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 0, 0, 0, 1)})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	paths := []string{"/files", "/files/1", "/files/1/gaps", "/files/1/wav", "/query?from=0s&to=100s", "/stats"}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[(c+i)%len(paths)])
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	for seq := 1; seq <= 50; seq++ {
		mustIngest(t, s, []*flash.Chunk{
			mkChunk(1, 0, uint32(seq), float64(seq), float64(seq+1)),
			mkChunk(flash.FileID(seq%5+2), 1, uint32(seq), float64(seq), float64(seq+1)),
		})
	}
	close(stop)
	wg.Wait()

	if st := s.Stats(); st.Chunks != 1+100 {
		t.Fatalf("chunks = %d, want 101", st.Chunks)
	}
}

// TestConcurrentIngestSameKeys has every writer ingest the *same* chunk
// stream; exactly one copy of each key may land regardless of interleaving.
func TestConcurrentIngestSameKeys(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	defer s.Close()
	mkBatch := func() []*flash.Chunk {
		var b []*flash.Chunk
		for f := 1; f <= 6; f++ {
			for q := 0; q < 25; q++ {
				b = append(b, mkChunk(flash.FileID(f), 7, uint32(q), float64(q), float64(q+1)))
			}
		}
		return b
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Ingest(mkBatch()); err != nil {
				t.Errorf("ingest: %v", err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Chunks != 6*25 {
		t.Fatalf("chunks = %d, want %d (dedup must hold under races)", st.Chunks, 6*25)
	}
	if got := counterValue(s, "enviromic_archive_ingest_chunks_total") + counterValue(s, "enviromic_archive_ingest_duplicates_total"); got != 6*6*25 {
		t.Fatalf("accounting: added+dups = %d, want %d", got, 6*6*25)
	}
}
