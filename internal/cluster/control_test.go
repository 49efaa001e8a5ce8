package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fsencr/internal/fsproto"
)

// call sends one raw control-plane request (an empty body is a GET) and answers
// the status and body.
func call(t *testing.T, hc *http.Client, url, body string) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = hc.Get(url)
	} else {
		resp, err = hc.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestControlPlaneContract pins the answers of the control plane's routes:
// each POST verb refuses a body that does not decode with 400 and the JSON
// error body, the node's verbs keep their 409/404 refusals, the coordinator
// answers an operator's refusal with a 4xx and a failed migration with 500,
// and GET /cluster/table answers.
func TestControlPlaneContract(t *testing.T) {
	a := startNode(t, nil, "a")
	coord, cs := startCoordinator(t)
	if _, err := coord.Join(a.srv.URL, false); err != nil {
		t.Fatal(err)
	}
	_, fresh := startCoordinator(t) // nothing joined: every shard unplaced
	hc := &http.Client{Timeout: 10 * time.Second}
	t.Cleanup(hc.CloseIdleConnections)

	type row struct {
		name   string
		base   string
		path   string
		body   string // "" is a GET
		status int
	}
	var rows []row
	for _, path := range []string{"/fabric/freeze", "/fabric/resume", "/fabric/commit", "/fabric/discard",
		"/fabric/pull", "/fabric/replica/start", "/fabric/replica/promote", "/fabric/table"} {
		rows = append(rows, row{"malformed " + path, a.srv.URL, path, `{"shard":`, http.StatusBadRequest})
	}
	for _, path := range []string{"/cluster/join", "/cluster/migrate", "/cluster/replicate"} {
		rows = append(rows, row{"malformed " + path, cs.URL, path, `not json`, http.StatusBadRequest})
	}
	rows = append(rows,
		row{"freeze", a.srv.URL, "/fabric/freeze", `{"shard":1}`, http.StatusOK},
		row{"second freeze", a.srv.URL, "/fabric/freeze", `{"shard":1}`, http.StatusConflict},
		row{"resume", a.srv.URL, "/fabric/resume", `{"shard":1}`, http.StatusOK},
		row{"commit unfrozen", a.srv.URL, "/fabric/commit", `{"shard":1,"epoch":2}`, http.StatusConflict},
		row{"promote without replica", a.srv.URL, "/fabric/replica/promote", `{"shard":1}`, http.StatusNotFound},
		row{"table", cs.URL, "/cluster/table", "", http.StatusOK},
		// A body past fsproto.MaxBodyBytes.
		row{"oversized table push", a.srv.URL, "/fabric/table",
			`{"epoch":1,"n_shards":4,"placements":[{"node":"` + strings.Repeat("x", 2<<20) + `"}]}`, http.StatusBadRequest},
		// Operator refusals.
		row{"join without node", cs.URL, "/cluster/join", `{"node":""}`, http.StatusBadRequest},
		row{"second seeding join", cs.URL, "/cluster/join", `{"node":"http://127.0.0.1:1"}`, http.StatusConflict},
		row{"migrate out of range", cs.URL, "/cluster/migrate", `{"shard":9,"to":"http://127.0.0.1:1"}`, http.StatusBadRequest},
		row{"replicate out of range", cs.URL, "/cluster/replicate", `{"shard":-1,"on":"http://127.0.0.1:1"}`, http.StatusBadRequest},
		row{"migrate unplaced", fresh.URL, "/cluster/migrate", `{"shard":0,"to":"http://127.0.0.1:1"}`, http.StatusBadRequest},
		row{"replicate unplaced", fresh.URL, "/cluster/replicate", `{"shard":0,"on":"http://127.0.0.1:1"}`, http.StatusBadRequest},
		row{"migrate to owner", cs.URL, "/cluster/migrate", fmt.Sprintf(`{"shard":0,"to":%q}`, a.srv.URL), http.StatusConflict},
		row{"replicate on owner", cs.URL, "/cluster/replicate", fmt.Sprintf(`{"shard":0,"on":%q}`, a.srv.URL), http.StatusConflict},
		// A failed catch-up is the fabric's failure, not the operator's.
		row{"migrate to dead node", cs.URL, "/cluster/migrate", `{"shard":0,"to":"http://127.0.0.1:1"}`, http.StatusInternalServerError},
	)
	for _, r := range rows {
		status, out := call(t, hc, r.base+r.path, r.body)
		if status != r.status {
			t.Errorf("%s: %s answered %d %s, want %d", r.name, r.path, status, out, r.status)
			continue
		}
		if status == http.StatusOK {
			continue
		}
		var ce fsproto.ControlError
		if err := json.Unmarshal(out, &ce); err != nil || ce.Error == "" {
			t.Errorf("%s: %d body %q is not a JSON error", r.name, status, out)
		}
	}
}

// TestControlBodyBound: a control request body past fsproto.MaxBodyBytes is
// refused before anything acts on it — a 2 MiB table push installs no
// table, and a 2 MiB join admits no member.
func TestControlBodyBound(t *testing.T) {
	a := startNode(t, nil, "a")
	coord, cs := startCoordinator(t)
	if _, err := coord.Join(a.srv.URL, false); err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	pad := strings.Repeat("x", 2<<20)

	push := fmt.Sprintf(`{"epoch":99,"n_shards":4,"placements":[{"shard":0,"node":"http://127.0.0.1:1/%s","epoch":99}]}`, pad)
	if status, out := call(t, hc, a.srv.URL+"/fabric/table", push); status != http.StatusBadRequest {
		t.Errorf("2 MiB table push answered %d %.80s, want 400", status, out)
	}
	if got := a.node.Service().ClusterEpoch(); got != 1 {
		t.Errorf("node epoch %d after a refused 2 MiB push, want 1", got)
	}

	join := fmt.Sprintf(`{"node":"http://127.0.0.1:1/%s","empty":true}`, pad)
	if status, out := call(t, hc, cs.URL+"/cluster/join", join); status != http.StatusBadRequest {
		t.Errorf("2 MiB join answered %d %.80s, want 400", status, out)
	}
	coord.mu.Lock()
	members := len(coord.members)
	coord.mu.Unlock()
	if members != 1 {
		t.Errorf("%d members after a refused 2 MiB join, want 1", members)
	}
}

// TestControlErrorNamesRefusal: the client call turns a refusal into an
// error naming the URL and carrying the verb's own text, which is what
// `fsencrd migrate` prints.
func TestControlErrorNamesRefusal(t *testing.T) {
	a := startNode(t, nil, "a")
	coord, cs := startCoordinator(t)
	if _, err := coord.Join(a.srv.URL, false); err != nil {
		t.Fatal(err)
	}
	err := fsproto.ControlJSON(&http.Client{Timeout: 10 * time.Second}, cs.URL+"/cluster/migrate",
		moveReq{Shard: 2, To: a.srv.URL}, nil)
	want := cs.URL + "/cluster/migrate: cluster: shard 2 already lives on " + a.srv.URL
	if err == nil || err.Error() != want {
		t.Fatalf("migrate to the owner: err %v, want %q", err, want)
	}
}
