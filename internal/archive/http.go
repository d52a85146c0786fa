package archive

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/mote"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
	"enviromic/internal/trace"
	"enviromic/internal/wav"
)

// NewHandler returns the archive's HTTP query service:
//
//	GET  /files                       list archived files
//	GET  /files/{id}                  one file's summary + chunk metadata
//	GET  /files/{id}/gaps?tolerance=  coverage gaps + the gap re-query
//	GET  /files/{id}/wav?rate=        reassembled audio as a WAV download
//	GET  /query?from=&to=&origins=    interval + origin query
//	POST /ingest                      framed chunk records (EncodeFrames)
//	POST /compact                     reclaim superseded segment bytes
//	GET  /stats                       store totals, cache, op counters
//	GET  /repl/status                 per-shard generation + size (replication source state)
//	GET  /repl/delta?cursor=&max=     next replication batch (segment frames)
//	GET  /repl/manifest?files=        chunk-key metadata for federated merges
//	GET  /repl/file/{id}              one file's chunks in wire framing
//
// Times in query parameters are Go durations since simulation start
// ("90s", "1m30s") or bare seconds ("90", "90.5"). The handler is safe
// for concurrent use; mount it under "/" next to pprof/expvar the same
// way enviromic-sim's -http debug mux is wired.
func NewHandler(s *Store) http.Handler {
	return NewHandlerWith(s, storeReader{s})
}

// NewHandlerWith is NewHandler with the five read routes (/files,
// /files/{id}, /files/{id}/gaps, /files/{id}/wav, /query) answered from
// rd instead of s alone. The write and replication routes still go to
// s. A federation station passes its merged view here, so federated
// reads are parsed and rendered by exactly the code that serves a
// single station.
func NewHandlerWith(s *Store, rd Reader) http.Handler {
	h := &handler{store: s, rd: rd}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /files", h.files)
	mux.HandleFunc("GET /files/{id}", h.file)
	mux.HandleFunc("GET /files/{id}/gaps", h.gaps)
	mux.HandleFunc("GET /files/{id}/wav", h.wav)
	mux.HandleFunc("GET /query", h.query)
	mux.HandleFunc("POST /ingest", h.ingest)
	mux.HandleFunc("POST /compact", h.compact)
	mux.HandleFunc("GET /stats", h.stats)
	mux.HandleFunc("GET /repl/status", h.replStatus)
	mux.HandleFunc("GET /repl/delta", h.replDelta)
	mux.HandleFunc("GET /repl/manifest", h.replManifest)
	mux.HandleFunc("GET /repl/file/{id}", h.replFile)
	return mux
}

// Reader is the data behind the five read routes. Every answer also
// names the peers whose holdings it is missing (nil when complete); the
// handler reports them in PartialHeader. Lookups of an absent file
// return ErrNotFound.
type Reader interface {
	// Files lists every file, sorted by ID.
	Files(ctx context.Context) ([]FileInfo, []string)
	// Query lists the files overlapping [from,to) that any of origins
	// recorded, with Store.Query's semantics and order.
	Query(ctx context.Context, from, to sim.Time, origins map[int32]bool) ([]FileInfo, []string)
	// Chunks returns one file's summary and its chunk keys, sorted by
	// (start, origin, seq) like a reassembled file.
	Chunks(ctx context.Context, id flash.FileID) (FileInfo, []ChunkKey, []string, error)
	// Gaps returns one file's coverage gaps at tolerance.
	Gaps(ctx context.Context, id flash.FileID, tolerance time.Duration) ([]Gap, []string, error)
	// Audio returns the erasure-decoded file that /wav renders.
	Audio(ctx context.Context, id flash.FileID) (*retrieval.File, []string, error)
	// GapTolerance is /files/{id}/gaps' default tolerance.
	GapTolerance() time.Duration
}

// storeReader answers the read routes from one station's Store.
type storeReader struct{ s *Store }

func (r storeReader) Files(context.Context) ([]FileInfo, []string) { return r.s.Files(), nil }

func (r storeReader) Query(_ context.Context, from, to sim.Time, origins map[int32]bool) ([]FileInfo, []string) {
	return r.s.Query(from, to, origins), nil
}

func (r storeReader) Chunks(_ context.Context, id flash.FileID) (FileInfo, []ChunkKey, []string, error) {
	fi, err := r.s.Info(id)
	if err != nil {
		return fi, nil, nil, err
	}
	f, err := r.s.File(id)
	if err != nil {
		return fi, nil, nil, err
	}
	keys := make([]ChunkKey, len(f.Chunks))
	for i, c := range f.Chunks {
		keys[i] = ChunkKey{
			Origin: c.Origin, Seq: c.Seq,
			Start: int64(c.Start), End: int64(c.End),
			Bytes: int64(len(c.Data)),
		}
	}
	return fi, keys, nil, nil
}

func (r storeReader) Gaps(_ context.Context, id flash.FileID, tolerance time.Duration) ([]Gap, []string, error) {
	gaps, err := r.s.Gaps(id, tolerance)
	return gaps, nil, err
}

func (r storeReader) Audio(_ context.Context, id flash.FileID) (*retrieval.File, []string, error) {
	// Erasure-aware read: gaps coverable by archived parity fragments
	// are reconstructed before stitching.
	f, _, err := r.s.FileErasure(id)
	return f, nil, err
}

func (r storeReader) GapTolerance() time.Duration { return r.s.GapTolerance() }

type handler struct {
	store *Store
	rd    Reader
}

// EndpointOf maps an archive request to its route pattern ("/files/{id}/wav"
// rather than the concrete path) so the telemetry middleware's per-endpoint
// series stay low-cardinality. Unknown paths collapse to "other".
func EndpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/files":
		return "/files"
	case strings.HasPrefix(p, "/files/"):
		switch {
		case strings.HasSuffix(p, "/gaps"):
			return "/files/{id}/gaps"
		case strings.HasSuffix(p, "/wav"):
			return "/files/{id}/wav"
		default:
			return "/files/{id}"
		}
	case strings.HasPrefix(p, "/repl/"):
		switch {
		case p == "/repl/status", p == "/repl/delta", p == "/repl/manifest":
			return p
		default:
			return "/repl/file/{id}"
		}
	case p == "/query", p == "/ingest", p == "/compact", p == "/stats", p == "/metrics":
		return p
	default:
		return "other"
	}
}

// PartialHeader names the peers whose holdings a federated response is
// missing. Its absence means the answer covers every healthy station.
const PartialHeader = "X-Federation-Partial"

// fileInfoJSON is FileInfo in response form: times both as raw
// nanoseconds (machine use) and seconds (human use).
type fileInfoJSON struct {
	ID       flash.FileID `json:"id"`
	Start    int64        `json:"start_ns"`
	End      int64        `json:"end_ns"`
	StartSec float64      `json:"start_s"`
	EndSec   float64      `json:"end_s"`
	Chunks   int          `json:"chunks"`
	Bytes    int64        `json:"bytes"`
	Origins  []int32      `json:"origins"`
	Gaps     int          `json:"gaps"`
}

func infoJSON(fi FileInfo) fileInfoJSON {
	origins := fi.Origins
	if origins == nil {
		origins = []int32{}
	}
	return fileInfoJSON{
		ID: fi.ID, Start: int64(fi.Start), End: int64(fi.End),
		StartSec: fi.Start.Seconds(), EndSec: fi.End.Seconds(),
		Chunks: fi.Chunks, Bytes: fi.Bytes, Origins: origins, Gaps: fi.Gaps,
	}
}

func infosJSON(infos []FileInfo) []fileInfoJSON {
	out := make([]fileInfoJSON, 0, len(infos))
	for _, fi := range infos {
		out = append(out, infoJSON(fi))
	}
	return out
}

type gapJSON struct {
	StartSec float64 `json:"start_s"`
	EndSec   float64 `json:"end_s"`
	Seconds  float64 `json:"seconds"`
}

func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// markPartial names the failed peers in PartialHeader. It runs before
// the body (or error) is written, so 404 and 422 answers carry it too.
func markPartial(w http.ResponseWriter, failed []string) {
	if len(failed) > 0 {
		w.Header().Set(PartialHeader, strings.Join(failed, ","))
	}
}

// readFailed answers a failed file lookup (404 for ErrNotFound, 500
// otherwise) and reports whether err was non-nil.
func readFailed(w http.ResponseWriter, id flash.FileID, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, "file %d not found", id)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
	return true
}

// parseTime accepts a Go duration ("90s") or bare seconds ("90.5") since
// simulation start.
func parseTime(s string) (sim.Time, error) {
	if s == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return sim.At(d), nil
	}
	if sec, err := strconv.ParseFloat(s, 64); err == nil {
		return sim.Time(sec * float64(time.Second)), nil
	}
	return 0, fmt.Errorf("bad time %q (want a duration like 90s or seconds)", s)
}

func (h *handler) fileID(r *http.Request) (flash.FileID, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad file id %q", raw)
	}
	return flash.FileID(id), nil
}

func (h *handler) files(w http.ResponseWriter, r *http.Request) {
	infos, failed := h.rd.Files(r.Context())
	markPartial(w, failed)
	WriteJSON(w, infosJSON(infos))
}

func (h *handler) file(w http.ResponseWriter, r *http.Request) {
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fi, keys, failed, err := h.rd.Chunks(r.Context(), id)
	markPartial(w, failed)
	if readFailed(w, id, err) {
		return
	}
	type chunkJSON struct {
		Origin   int32   `json:"origin"`
		Seq      uint32  `json:"seq"`
		StartSec float64 `json:"start_s"`
		EndSec   float64 `json:"end_s"`
		Bytes    int     `json:"bytes"`
	}
	var start, end sim.Time
	chunks := make([]chunkJSON, 0, len(keys))
	for i, c := range keys {
		cs, ce := sim.Time(c.Start), sim.Time(c.End)
		if i == 0 {
			start = cs // keys are start-ordered
		}
		end = max(end, ce)
		chunks = append(chunks, chunkJSON{
			Origin: c.Origin, Seq: c.Seq,
			StartSec: cs.Seconds(), EndSec: ce.Seconds(),
			Bytes: int(c.Bytes),
		})
	}
	WriteJSON(w, struct {
		fileInfoJSON
		DurationSec float64     `json:"duration_s"`
		ChunkList   []chunkJSON `json:"chunk_list"`
	}{infoJSON(fi), end.Sub(start).Seconds(), chunks})
}

func (h *handler) gaps(w http.ResponseWriter, r *http.Request) {
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tolerance := h.rd.GapTolerance()
	if s := r.URL.Query().Get("tolerance"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad tolerance %q", s)
			return
		}
		tolerance = d
	}
	gaps, failed, err := h.rd.Gaps(r.Context(), id, tolerance)
	markPartial(w, failed)
	if readFailed(w, id, err) {
		return
	}
	out := make([]gapJSON, 0, len(gaps))
	for _, g := range gaps {
		out = append(out, gapJSON{
			StartSec: g.Start.Seconds(),
			EndSec:   g.End.Seconds(),
			Seconds:  g.End.Sub(g.Start).Seconds(),
		})
	}
	// The re-query a mule would flood to fill what's still missing —
	// the same shape Mule.MissingFiles produces in the field. The parity
	// sibling rides along so dispersal-mode fragments that can decode
	// the gap are collected too.
	requery := []flash.FileID{}
	if len(gaps) > 0 {
		requery = []flash.FileID{id, id | erasure.ParityFileBit}
	}
	WriteJSON(w, struct {
		File         flash.FileID   `json:"file"`
		ToleranceSec float64        `json:"tolerance_s"`
		Gaps         []gapJSON      `json:"gaps"`
		RequeryFiles []flash.FileID `json:"requery_files"`
	}{id, tolerance.Seconds(), out, requery})
}

func (h *handler) wav(w http.ResponseWriter, r *http.Request) {
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rate := mote.DefaultSampleRate
	if s := r.URL.Query().Get("rate"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "bad rate %q", s)
			return
		}
		rate = v
	}
	f, failed, err := h.rd.Audio(r.Context(), id)
	markPartial(w, failed)
	if readFailed(w, id, err) {
		return
	}
	samples := trace.Stitch(f, rate)
	if len(samples) == 0 {
		httpError(w, http.StatusUnprocessableEntity, "file %d renders no samples", id)
		return
	}
	w.Header().Set("Content-Type", "audio/wav")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=file-%d.wav", id))
	if err := wav.Write(w, samples, int(rate)); err != nil {
		// Headers are gone; nothing to do but log-level surface via 500
		// if nothing was written yet — in practice wav.Write fails only
		// on bad input, caught above.
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseTime(q.Get("from"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "from: %v", err)
		return
	}
	to, err := parseTime(q.Get("to"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "to: %v", err)
		return
	}
	var origins map[int32]bool
	if s := q.Get("origins"); s != "" {
		origins = make(map[int32]bool)
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			v, err := strconv.ParseInt(part, 10, 32)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad origin %q", part)
				return
			}
			origins[int32(v)] = true
		}
	}
	infos, failed := h.rd.Query(r.Context(), from, to, origins)
	markPartial(w, failed)
	WriteJSON(w, infosJSON(infos))
}

// maxIngestBytes caps a POST /ingest body; a larger one gets 413. The
// largest bodies in-repo clients send, measured: a /repl/delta batch of
// DefaultDeltaBytes (1 MiB plus at most one 264-byte frame), a 140,688-
// byte city tour flush in the federation smoke, and a 38,544-byte batch
// in perfbench's station workload. The cap is 20x the largest.
const maxIngestBytes = 20 << 20

func (h *handler) ingest(w http.ResponseWriter, r *http.Request) {
	chunks, err := DecodeFrames(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "ingest body over %d bytes", tooBig.Limit)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := h.store.Ingest(chunks)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, ingestReportJSON(rep))
}

// ingestReportJSON shapes an IngestReport for the wire, including the
// follow-up re-query.
func ingestReportJSON(rep IngestReport) any {
	type deltaJSON struct {
		File          flash.FileID `json:"file"`
		Added         int          `json:"added"`
		Duplicates    int          `json:"duplicates"`
		Superseded    int          `json:"superseded"`
		GapsBefore    int          `json:"gaps_before"`
		GapsAfter     int          `json:"gaps_after"`
		GapSpanBefore float64      `json:"gap_span_before_s"`
		GapSpanAfter  float64      `json:"gap_span_after_s"`
	}
	deltas := make([]deltaJSON, 0, len(rep.Files))
	for _, d := range rep.Files {
		deltas = append(deltas, deltaJSON{
			File: d.File, Added: d.Added, Duplicates: d.Duplicates,
			Superseded: d.Superseded,
			GapsBefore: d.GapsBefore, GapsAfter: d.GapsAfter,
			GapSpanBefore: d.GapSpanBefore.Seconds(),
			GapSpanAfter:  d.GapSpanAfter.Seconds(),
		})
	}
	requery := requeryIDs(rep.Requery())
	return struct {
		Added      int            `json:"added"`
		Duplicates int            `json:"duplicates"`
		Superseded int            `json:"superseded"`
		Files      []deltaJSON    `json:"files"`
		Requery    []flash.FileID `json:"requery_files"`
	}{rep.Added, rep.Duplicates, rep.Superseded, deltas, requery}
}

// requeryIDs flattens a gap re-query's file set, sorted.
func requeryIDs(q retrieval.Query) []flash.FileID {
	ids := make([]flash.FileID, 0, len(q.Files))
	for id := range q.Files {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func (h *handler) compact(w http.ResponseWriter, r *http.Request) {
	rep, err := h.store.Compact()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, rep)
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, h.store.Stats())
}

// Replication delta response headers: the advanced cursor to resume
// from, and the byte lag still unshipped (0 = caught up).
const (
	ReplCursorHeader = "X-Repl-Cursor"
	ReplLagHeader    = "X-Repl-Lag"
)

func (h *handler) replStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, h.store.ReplStatus())
}

func (h *handler) replDelta(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cur, err := ParseReplCursor(q.Get("cursor"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "cursor: %v", err)
		return
	}
	var maxBytes int64
	if s := q.Get("max"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "bad max %q", s)
			return
		}
		maxBytes = v
	}
	frames, next, lag, err := h.store.Delta(cur, maxBytes)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(ReplCursorHeader, next.String())
	w.Header().Set(ReplLagHeader, strconv.FormatInt(lag, 10))
	w.Write(frames)
}

func (h *handler) replManifest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseTime(q.Get("from"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "from: %v", err)
		return
	}
	to, err := parseTime(q.Get("to"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "to: %v", err)
		return
	}
	var files map[flash.FileID]bool
	if s := q.Get("files"); s != "" {
		files = make(map[flash.FileID]bool)
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			v, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad file id %q", part)
				return
			}
			files[flash.FileID(v)] = true
		}
	}
	ms := h.store.Manifest(from, to, nil, files)
	if ms == nil {
		ms = []FileManifest{}
	}
	WriteJSON(w, ms)
}

func (h *handler) replFile(w http.ResponseWriter, r *http.Request) {
	id, err := h.fileID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	frames, err := h.store.FileFrames(id)
	if errors.Is(err, ErrNotFound) {
		httpError(w, http.StatusNotFound, "file %d not found", id)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frames)
}
