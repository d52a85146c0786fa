package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/erasure"
	"enviromic/internal/flash"
	"enviromic/internal/retrieval"
	"enviromic/internal/sim"
)

// The fan-out coordinator. Every federated read follows the same
// shape: ask the local store, ask every healthy peer's /repl endpoint
// in parallel (marked LocalHeader so peers answer from their own store
// only), and merge with the archive's supersession rule — per (origin,
// seq), the longest copy wins, local first on ties. mergedReader hands
// the merge to the archive's handler, which renders it exactly like a
// single station's answer. Failed peers are dropped from the merge and
// named in archive.PartialHeader.

// peerResp is one peer's answer to one fan-out path.
type peerResp struct {
	peer   *peerState
	path   string
	status int
	body   []byte
	err    error
}

// fanout issues every path to every healthy peer in parallel and
// returns the responses plus the names of peers that failed (transport
// error or 5xx; a 404 is an answer, not a failure). The endpoint names
// the latency histogram series.
func (st *Station) fanout(ctx context.Context, endpoint string, paths []string) ([]peerResp, []string) {
	peers := st.healthyPeers()
	if len(peers) == 0 || len(paths) == 0 {
		return nil, nil
	}
	st.cFanouts.Inc()
	start := time.Now()
	out := make([]peerResp, len(peers)*len(paths))
	var wg sync.WaitGroup
	for i, p := range peers {
		for j, path := range paths {
			i, j, p, path := i, j, p, path
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i*len(paths)+j] = st.fetch(ctx, p, path)
			}()
		}
	}
	wg.Wait()
	if h := st.hFanout[endpoint]; h != nil {
		h.ObserveDuration(time.Since(start))
	}
	var failed []string
	seen := make(map[string]bool)
	for _, r := range out {
		if (r.err != nil || r.status >= 500) && !seen[r.peer.Name] {
			seen[r.peer.Name] = true
			failed = append(failed, r.peer.Name)
			st.cPeerErrs.Inc()
		}
	}
	sort.Strings(failed)
	if len(failed) > 0 {
		st.cPartial.Inc() // one fan-out round per federated response
	}
	return out, failed
}

// fetch performs one fan-out GET against one peer.
func (st *Station) fetch(ctx context.Context, p *peerState, path string) peerResp {
	ctx, cancel := context.WithTimeout(ctx, st.cfg.FanoutTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+path, nil)
	if err != nil {
		return peerResp{peer: p, path: path, err: err}
	}
	req.Header.Set(LocalHeader, "1")
	resp, err := st.client.Do(req)
	if err != nil {
		return peerResp{peer: p, path: path, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return peerResp{peer: p, path: path, err: err}
	}
	return peerResp{peer: p, path: path, status: resp.StatusCode, body: body}
}

// ckey identifies a chunk across stations.
type ckey struct {
	file   flash.FileID
	origin int32
	seq    uint32
}

// mergedManifest merges the local manifest with every healthy peer's
// into one keep-longest chunk-key view per file, in no particular
// order. A non-nil files set restricts the merge (and the peer
// requests) to those IDs.
func (st *Station) mergedManifest(ctx context.Context, endpoint string, files map[flash.FileID]bool) (map[flash.FileID][]archive.ChunkKey, []string) {
	path := "/repl/manifest"
	if len(files) > 0 {
		ids := make([]flash.FileID, 0, len(files))
		for id := range files {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		path += "?files="
		for i, id := range ids {
			if i > 0 {
				path += ","
			}
			path += fmt.Sprint(uint32(id))
		}
	}
	resps, failed := st.fanout(ctx, endpoint, []string{path})

	best := make(map[ckey]archive.ChunkKey)
	absorb := func(ms []archive.FileManifest) {
		for _, m := range ms {
			for _, c := range m.Chunks {
				k := ckey{m.ID, c.Origin, c.Seq}
				if cur, ok := best[k]; !ok || c.Bytes > cur.Bytes {
					best[k] = c
				}
			}
		}
	}
	absorb(st.store.Manifest(0, 0, nil, files))
	for _, r := range resps {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		var ms []archive.FileManifest
		if err := json.Unmarshal(r.body, &ms); err != nil {
			continue // a garbled peer degrades to partial, not to corruption
		}
		absorb(ms)
	}
	out := make(map[flash.FileID][]archive.ChunkKey)
	for k, c := range best {
		out[k.file] = append(out[k.file], c)
	}
	return out, failed
}

// infoFor summarizes one merged chunk set exactly the way a single
// station's index would (gap count at the local store's tolerance).
func (st *Station) infoFor(id flash.FileID, chunks []archive.ChunkKey) archive.FileInfo {
	fi := archive.FileInfo{ID: id, Chunks: len(chunks)}
	origins := make(map[int32]bool)
	for i, c := range chunks {
		if i == 0 || sim.Time(c.Start) < fi.Start {
			fi.Start = sim.Time(c.Start)
		}
		if sim.Time(c.End) > fi.End {
			fi.End = sim.Time(c.End)
		}
		fi.Bytes += c.Bytes
		origins[c.Origin] = true
	}
	fi.Origins = make([]int32, 0, len(origins))
	for o := range origins {
		fi.Origins = append(fi.Origins, o)
	}
	sort.Slice(fi.Origins, func(i, j int) bool { return fi.Origins[i] < fi.Origins[j] })
	fi.Gaps = len(archive.GapsInSpans(chunks, st.store.GapTolerance()))
	return fi
}

// federatedChunks pools the listed files' chunks from the local store
// and every healthy peer, deduplicated keep-longest. The returned
// chunks mix shared local cache entries with peer-decoded copies —
// callers must treat them as read-only.
func (st *Station) federatedChunks(ctx context.Context, endpoint string, ids []flash.FileID) ([]*flash.Chunk, []string, error) {
	best := make(map[ckey]*flash.Chunk)
	absorb := func(cs []*flash.Chunk) {
		for _, c := range cs {
			k := ckey{c.File, c.Origin, c.Seq}
			if cur, ok := best[k]; !ok || len(c.Data) > len(cur.Data) {
				best[k] = c
			}
		}
	}
	for _, id := range ids {
		f, err := st.store.File(id)
		if errors.Is(err, archive.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		absorb(f.Chunks)
	}
	paths := make([]string, len(ids))
	for i, id := range ids {
		paths[i] = fmt.Sprintf("/repl/file/%d", uint32(id))
	}
	resps, failed := st.fanout(ctx, endpoint, paths)
	for _, r := range resps {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		chunks, err := archive.DecodeFrames(bytes.NewReader(r.body))
		if err != nil {
			continue // torn peer stream: use what the others have
		}
		absorb(chunks)
	}
	out := make([]*flash.Chunk, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	return out, failed, nil
}

// mergedReader is the Station's archive.Reader: every answer comes
// from the merge of the local store and every healthy peer.
type mergedReader struct{ st *Station }

func (m mergedReader) Files(ctx context.Context) ([]archive.FileInfo, []string) {
	infos, failed := m.infos(ctx, "/files", 0, 0, nil)
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos, failed
}

func (m mergedReader) Query(ctx context.Context, from, to sim.Time, origins map[int32]bool) ([]archive.FileInfo, []string) {
	infos, failed := m.infos(ctx, "/query", from, to, origins)
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Start != infos[j].Start {
			return infos[i].Start < infos[j].Start
		}
		return infos[i].ID < infos[j].ID
	})
	return infos, failed
}

// infos merges the full manifests, then filters on the MERGED spans: a
// file whose pieces individually miss the window can still overlap it
// once the stations' holdings are combined, and only the merged view
// matches what a fully-replicated station would answer.
func (m mergedReader) infos(ctx context.Context, endpoint string, from, to sim.Time, origins map[int32]bool) ([]archive.FileInfo, []string) {
	merged, failed := m.st.mergedManifest(ctx, endpoint, nil)
	bounded := from != 0 || to != 0
	infos := make([]archive.FileInfo, 0, len(merged))
	for id, chunks := range merged {
		fi := m.st.infoFor(id, chunks)
		if bounded && (fi.End <= from || (to != 0 && fi.Start >= to)) {
			continue
		}
		if len(origins) > 0 && !slices.ContainsFunc(fi.Origins, func(o int32) bool { return origins[o] }) {
			continue
		}
		infos = append(infos, fi)
	}
	return infos, failed
}

func (m mergedReader) Chunks(ctx context.Context, id flash.FileID) (archive.FileInfo, []archive.ChunkKey, []string, error) {
	chunks, failed := m.file(ctx, "/files/{id}", id)
	if len(chunks) == 0 {
		return archive.FileInfo{}, nil, failed, archive.ErrNotFound
	}
	sort.Slice(chunks, func(i, j int) bool {
		a, b := chunks[i], chunks[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
	return m.st.infoFor(id, chunks), chunks, failed, nil
}

func (m mergedReader) Gaps(ctx context.Context, id flash.FileID, tolerance time.Duration) ([]archive.Gap, []string, error) {
	chunks, failed := m.file(ctx, "/files/{id}/gaps", id)
	if len(chunks) == 0 {
		return nil, failed, archive.ErrNotFound
	}
	return archive.GapsInSpans(chunks, tolerance), failed, nil
}

// file is one file's merged chunk keys.
func (m mergedReader) file(ctx context.Context, endpoint string, id flash.FileID) ([]archive.ChunkKey, []string) {
	merged, failed := m.st.mergedManifest(ctx, endpoint, map[flash.FileID]bool{id: true})
	return merged[id], failed
}

// Audio pools the file AND its parity sibling from every station, then
// erasure-decodes over the merged holdings: k surviving fragments
// reconstruct a group even when no single station holds k of them.
func (m mergedReader) Audio(ctx context.Context, id flash.FileID) (*retrieval.File, []string, error) {
	ids := []flash.FileID{id}
	if id&erasure.ParityFileBit == 0 {
		ids = append(ids, id|erasure.ParityFileBit)
	}
	pool, failed, err := m.st.federatedChunks(ctx, "/files/{id}/wav", ids)
	if err != nil {
		return nil, failed, err
	}
	files, _ := retrieval.ReassembleErasure(
		map[int][]*flash.Chunk{0: pool},
		retrieval.Query{Files: map[flash.FileID]bool{id: true}},
	)
	if f := files[id]; f != nil {
		return f, failed, nil
	}
	return nil, failed, archive.ErrNotFound
}

func (m mergedReader) GapTolerance() time.Duration { return m.st.store.GapTolerance() }
