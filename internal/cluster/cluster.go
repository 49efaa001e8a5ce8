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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"fsencr/internal/server"
)

// fabricErr is the JSON error body fabric endpoints return.
type fabricErr struct {
	Error string `json:"error"`
}

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

// postJSON posts req as JSON and decodes a 200 response into out (nil out
// discards it). Non-200 responses come back as errors carrying the body.
func postJSON(hc *http.Client, url string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	data, err := postRaw(hc, url, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// postRaw posts a body (the fabric's handlers do not look at the content
// type) and returns the raw 200 response: encoded log records for a pull.
func postRaw(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var fe fabricErr
		if json.Unmarshal(data, &fe) == nil && fe.Error != "" {
			return nil, fmt.Errorf("cluster: %s: %s", url, fe.Error)
		}
		return nil, fmt.Errorf("cluster: %s: %s: %s", url, resp.Status, data)
	}
	return data, nil
}

// writeErr answers a fabric request with a JSON error.
func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(fabricErr{Error: err.Error()})
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
