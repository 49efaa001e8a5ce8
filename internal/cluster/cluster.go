// Package cluster is the multi-node shard fabric: an epoch-versioned
// routing plane over the per-tenant shards of internal/server.
//
// Three roles:
//
//   - Coordinator: owns the placement table {shard -> node, epoch,
//     replicas}, admits nodes (/cluster/join), serves the table to
//     routing clients (/cluster/table), and orchestrates live shard
//     migration and replica failover. Every ownership change bumps the
//     table epoch and pushes the new table to every member.
//
//   - Node: one fsencrd process — a server.Service plus the fabric
//     endpoints (/fabric/*) the coordinator drives: freeze/resume/commit on
//     a migration source, pull for replication, replica start/promote/
//     status/discard, and table pushes that update the node's published
//     epoch, its misroute forwarder and the owner its replicas pull from.
//
//   - Replica: a detached shard on a node replaying a primary's
//     admission log pull-by-pull. Checkpoint records carry the primary's
//     Merkle root, so divergence is detected at every checkpoint cadence;
//     a clean replica promotes into a serving owner when the primary
//     dies, or when a migration moves the shard to its node.
//
// There is one way to rebuild a shard on another node: admission-log replay
// (see internal/server/apply.go) into a replica. A shard's simulated state
// is a pure function of its log, so a migration makes the target a replica,
// freezes the source once the replica has caught up, and promotes the
// replica at the freeze point — gated on the frozen log length, the digest
// of the source's module image and the Osiris crash-recovery cycle. Only the
// log and that 32-byte digest cross the wire.
package cluster

import (
	"encoding/json"
	"errors"
	"net/http"

	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

// shardReq is the common fabric request shape.
type shardReq struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch,omitempty"`
	From  uint64 `json:"from,omitempty"`
	// Source is the base URL a replica pulls from (replica/start).
	Source string `json:"source,omitempty"`
	// Frozen is where a migration's source froze (replica/promote; nil in
	// a failover).
	Frozen *server.Frozen `json:"frozen,omitempty"`
}

// statusError is a control-plane verb's error that names its HTTP status;
// any other error answers 500.
type statusError struct {
	status int
	error
}

// verb adapts one control-plane verb — every POST route of a node and of
// the coordinator — to its handler, the server half of fsproto.Control. A
// body past fsproto.MaxBodyBytes or one that does not decode as R answers
// 400, an error its statusError status (else 500) with the JSON error body,
// and a result 200: a [][]byte as its pieces back to back (encoded log
// records), nil as the empty object, anything else as JSON.
func verb[R any](f func(*http.Request, R) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		var out any
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, fsproto.MaxBodyBytes)).Decode(&req)
		if err != nil {
			err = statusError{http.StatusBadRequest, err}
		} else {
			out, err = f(r, req)
		}
		if err != nil {
			status := http.StatusInternalServerError
			if se := (statusError{}); errors.As(err, &se) {
				status = se.status
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(fsproto.ControlError{Error: err.Error()})
			return
		}
		switch out := out.(type) {
		case nil:
			writeJSON(w, struct{}{})
		case [][]byte:
			w.Header().Set("Content-Type", "application/octet-stream")
			for _, b := range out {
				w.Write(b)
			}
		default:
			writeJSON(w, out)
		}
	}
}

// writeJSON answers 200 with a JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// healthy reports whether base answers its health endpoint.
func healthy(hc *http.Client, base string) bool {
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
