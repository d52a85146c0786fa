package federation

import (
	"net/http"

	"enviromic/internal/archive"
)

// Handler returns the station's HTTP surface: the archive's full API
// with the read routes (/query, /files, /files/{id}, /gaps, /wav)
// answered from the federated merge, plus GET /federation for the
// peer/replication status. Requests carrying LocalHeader — fan-out
// requests from peers — bypass federation and hit the local store, as
// do all write and replication endpoints.
//
// Federated reads are rendered by the archive's own handler, so they
// keep the single-station JSON and WAV shapes exactly; the only
// federation-visible artifact is the archive.PartialHeader naming peers
// whose holdings are missing from the answer.
func (st *Station) Handler() http.Handler {
	local := archive.NewHandler(st.store)
	fed := http.NewServeMux()
	fed.Handle("/", archive.NewHandlerWith(st.store, mergedReader{st}))
	fed.HandleFunc("GET /federation", st.fedStatus)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(LocalHeader) != "" {
			local.ServeHTTP(w, r)
			return
		}
		fed.ServeHTTP(w, r)
	})
}

// fedStatus serves GET /federation: self, replication sources, and the
// live per-peer view.
func (st *Station) fedStatus(w http.ResponseWriter, r *http.Request) {
	type peerJSON struct {
		Name     string `json:"name"`
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		LagBytes int64  `json:"lag_bytes"`
		Cursor   string `json:"cursor"`
		LastErr  string `json:"last_error,omitempty"`
	}
	peers := make([]peerJSON, 0, len(st.peers))
	for _, p := range st.peers {
		p.mu.Lock()
		lastErr := p.lastErr
		state := p.lastState
		p.mu.Unlock()
		cur := st.repl.cursor(p.Name)
		peers = append(peers, peerJSON{
			Name: p.Name, URL: p.URL,
			Healthy:  p.healthy.Load(),
			LagBytes: state.Lag(cur),
			Cursor:   cur.String(),
			LastErr:  lastErr,
		})
	}
	archive.WriteJSON(w, struct {
		Self              string     `json:"self"`
		ReplicationFactor int        `json:"replication_factor"`
		Sources           []string   `json:"replication_sources"`
		Peers             []peerJSON `json:"peers"`
	}{st.cfg.Self, st.cfg.ReplicationFactor, st.ReplicationSources(), peers})
}
