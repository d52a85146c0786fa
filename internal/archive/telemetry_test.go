package archive

import (
	"net/http/httptest"
	"strings"
	"testing"

	"enviromic/internal/flash"
	"enviromic/internal/telemetry"
)

// scrape renders the registry's exposition and returns each sample by
// series name, failing the test if the text does not parse.
func scrape(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	telemetry.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := telemetry.ParseText(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, smp := range samples {
		byName[smp.Name] = smp.Value
	}
	return byName
}

// TestTelemetryCounters pins the store's counters in the registry it
// publishes into: op counts under their Prometheus names, the
// group-commit histogram, and an exposition that parses and carries the
// store-size and cache-hit-ratio gauges.
func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Shards: 2, Telemetry: reg})
	defer s.Close()

	if s.Metrics() != reg {
		t.Fatalf("Metrics() did not return the injected registry")
	}

	mustIngest(t, s, []*flash.Chunk{
		mkChunk(1, 3, 0, 0, 1),
		mkChunk(1, 3, 1, 1, 2),
		mkChunk(2, 4, 0, 10, 11),
	})
	if _, err := s.File(1); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := s.File(1); err != nil { // hit
		t.Fatal(err)
	}
	s.Query(0, 0, nil)

	want := map[string]int64{
		"enviromic_archive_ingest_batches_total": 1,
		"enviromic_archive_ingest_chunks_total":  3,
		"enviromic_archive_queries_total":        1,
		"enviromic_archive_cache_hits_total":     1,
		"enviromic_archive_cache_misses_total":   1,
		"enviromic_archive_reassemblies_total":   1,
	}
	for name, v := range want {
		if got := counterValue(s, name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if counterValue(s, "enviromic_archive_group_commits_total") == 0 {
		t.Errorf("no group commit counted")
	}

	// The group-commit batch-size histogram saw the ingest.
	if got := reg.Histogram("enviromic_archive_group_commit_batch_size", "",
		telemetry.ExpBuckets(1, 2, 7)).Count(); got == 0 {
		t.Errorf("batch-size histogram recorded nothing")
	}

	// Exposition: parses, and carries totals plus the hit-ratio gauge.
	byName := scrape(t, reg)
	if byName["enviromic_archive_files"] != 2 || byName["enviromic_archive_chunks"] != 3 {
		t.Errorf("store-size gauges wrong: files=%v chunks=%v",
			byName["enviromic_archive_files"], byName["enviromic_archive_chunks"])
	}
	if byName["enviromic_archive_cache_hit_ratio"] != 0.5 {
		t.Errorf("cache hit ratio = %v, want 0.5 after one hit one miss",
			byName["enviromic_archive_cache_hit_ratio"])
	}
}

// TestCacheCountsOnePath pins that a reassembly-cache lookup is counted
// once: /stats, /metrics and the hit-ratio gauge read the same hit and
// miss counters. The stale entry put back below is what a reassembly
// racing an ingest leaves behind; its version no longer matches the
// file's, so the lookup is a miss everywhere.
func TestCacheCountsOnePath(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Shards: 1, Telemetry: reg})
	defer s.Close()

	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 0, 0, 1)})
	f, err := s.File(1)
	if err != nil {
		t.Fatal(err)
	}
	oldVersion, _ := s.shardFor(1).version(1)
	mustIngest(t, s, []*flash.Chunk{mkChunk(1, 3, 1, 1, 2)})
	s.cache.put(1, oldVersion, f)
	if f2, err := s.File(1); err != nil || len(f2.Chunks) != 2 {
		t.Fatalf("File after ingest: %v, err %v (stale entry served?)", f2, err)
	}

	st := s.Stats().Cache
	m := scrape(t, reg)
	hits, misses := m["enviromic_archive_cache_hits_total"], m["enviromic_archive_cache_misses_total"]
	if hits != 0 || misses != 2 {
		t.Fatalf("/metrics hits/misses = %v/%v, want 0/2", hits, misses)
	}
	if float64(st.Hits) != hits || float64(st.Misses) != misses {
		t.Fatalf("/stats hits/misses = %d/%d, /metrics = %v/%v", st.Hits, st.Misses, hits, misses)
	}
	if ratio := m["enviromic_archive_cache_hit_ratio"]; ratio != hits/(hits+misses) {
		t.Fatalf("hit ratio gauge = %v, want %v", ratio, hits/(hits+misses))
	}
}

// TestEndpointOf pins the route-pattern mapping the HTTP middleware uses.
func TestEndpointOf(t *testing.T) {
	cases := map[string]string{
		"/files":           "/files",
		"/files/12":        "/files/{id}",
		"/files/12/gaps":   "/files/{id}/gaps",
		"/files/12/wav":    "/files/{id}/wav",
		"/query":           "/query",
		"/ingest":          "/ingest",
		"/stats":           "/stats",
		"/metrics":         "/metrics",
		"/debug/pprof/":    "other",
		"/files2/whatever": "other",
	}
	for path, wantEP := range cases {
		r := httptest.NewRequest("GET", path, nil)
		if got := EndpointOf(r); got != wantEP {
			t.Errorf("EndpointOf(%s) = %q, want %q", path, got, wantEP)
		}
	}
}
