package fsclient

// Malicious-client mode: the protocol-level half of the chaos engine. Where
// internal/chaos attacks the machine from below (bit flips in NVM),
// RunMalice attacks fsencrd from above — forged and replayed session
// tokens, cross-tenant namespace overrides, wrong passphrases, oversized
// and truncated request bodies, forged lengths, malformed payload frames,
// and request framing no HTTP client would produce, sent from a raw socket
// to a connection the server's request loop already holds — and asserts that
// every attack is refused with the documented stable error code and that not
// one plaintext byte of the victim's data leaks into any response.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strings"
	"time"

	"fsencr/internal/fsproto"
)

// MaliceAttack is one attack's outcome.
type MaliceAttack struct {
	Name string `json:"name"`
	// WantCodes is the set of acceptable stable error codes.
	WantCodes []string `json:"want_codes"`
	GotStatus int      `json:"got_status"`
	GotCode   string   `json:"got_code"`
	Passed    bool     `json:"passed"`
	Leaked    bool     `json:"leaked"`
}

// MaliceReport is the outcome of one malicious-client campaign.
type MaliceReport struct {
	Attacks []MaliceAttack `json:"attacks"`
	Passed  int            `json:"passed"`
	Failed  int            `json:"failed"`
	// Leaks counts attack responses carrying any of the victim's plaintext.
	// Zero is the acceptance criterion.
	Leaks int `json:"leaks"`
}

// add files one attack's outcome; a leak fails the attack whatever it answered.
func (r *MaliceReport) add(a MaliceAttack) {
	if a.Leaked {
		r.Leaks++
		a.Passed = false
	}
	if a.Passed {
		r.Passed++
	} else {
		r.Failed++
	}
	r.Attacks = append(r.Attacks, a)
}

// Clean reports a fully-refused campaign: every attack got its expected
// error and nothing leaked.
func (r *MaliceReport) Clean() bool { return r.Failed == 0 && r.Leaks == 0 }

func (r *MaliceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "malice campaign: %d/%d attacks refused, %d leaks\n",
		r.Passed, r.Passed+r.Failed, r.Leaks)
	for _, a := range r.Attacks {
		status := "ok"
		if !a.Passed {
			status = fmt.Sprintf("FAILED (got %d/%q, want %v)", a.GotStatus, a.GotCode, a.WantCodes)
		}
		if a.Leaked {
			status += " LEAKED"
		}
		fmt.Fprintf(&b, "  %-28s %s\n", a.Name, status)
	}
	return b.String()
}

// secretByte fills the victim file; any attack response containing a run of
// it carried victim plaintext.
const secretByte = byte('Z')

// rawResult is one raw HTTP exchange.
type rawResult struct {
	status int
	ctype  string
	code   string
	body   []byte
}

// rawDo sends method+body to base+path with the given content type and
// token header and returns the raw outcome — the attacker's view, below
// the typed Client.
func rawDo(hc *http.Client, method, base, path, ctype, token string, body []byte) (rawResult, error) {
	hr, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return rawResult{}, err
	}
	hr.Header.Set("Content-Type", ctype)
	if token != "" {
		hr.Header.Set(fsproto.TokenHeader, token)
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return rawResult{}, err
	}
	return readRaw(resp)
}

// readRaw reads one response's body and error code, and closes it.
func readRaw(resp *http.Response) (rawResult, error) {
	defer resp.Body.Close()
	data, err := fsproto.ReadBody(resp.Body, resp.ContentLength, fsproto.MaxBodyBytes)
	if err != nil {
		return rawResult{}, err
	}
	var pe fsproto.Error
	_ = json.Unmarshal(data, &pe) // non-error bodies leave the code empty
	return rawResult{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), code: pe.Code, body: data}, nil
}

// socketAttack is one framing attack: bytes of the attacker's choosing,
// written to a connection whose first request — warm, well-formed — the
// server has already answered, so they reach the request loop that took the
// connection over, not net/http's parser.
type socketAttack struct {
	name string
	raw  string
	fin  bool       // half-close after raw: the body declared is never finished
	want [][]string // per expected answer, the acceptable codes, in order
	// closes: the server must end the connection after the last answer.
	closes bool
}

// run sends the attack and returns the answers that came back and whether
// the server then closed the connection.
func (a socketAttack) run(base, warm string) (answers []rawResult, closed bool, err error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, false, err
	}
	nc, err := net.DialTimeout("tcp", u.Host, 10*time.Second)
	if err != nil {
		return nil, false, err
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second)) // a TCP connection takes deadlines
	br := bufio.NewReader(nc)
	answer := func() (rawResult, error) {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return rawResult{}, err
		}
		return readRaw(resp)
	}
	if _, err := io.WriteString(nc, warm); err != nil {
		return nil, false, err
	}
	if _, err := answer(); err != nil {
		return nil, false, fmt.Errorf("warm-up request: %w", err)
	}
	if _, err := io.WriteString(nc, a.raw); err != nil {
		return nil, false, err
	}
	if a.fin {
		_ = nc.(*net.TCPConn).CloseWrite() // the read below reports a dead connection
	}
	for range a.want {
		res, err := answer()
		if err != nil {
			return answers, false, err
		}
		answers = append(answers, res)
	}
	// Closed means EOF now; a server keeping the connection sends nothing.
	_ = nc.SetReadDeadline(time.Now().Add(time.Second))
	switch _, err := br.ReadByte(); {
	case err == io.EOF:
		return answers, true, nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		return answers, false, nil
	default:
		return answers, false, fmt.Errorf("after the last answer: byte or error %v, want EOF or silence", err)
	}
}

// leaked reports whether an attack response carried victim plaintext: any
// successful payload at all (every attack must be refused, so a 200 with a
// raw body is a leak whatever it holds), or the secret pattern anywhere —
// raw, or in the base64 a JSON body would carry it in.
func leaked(res rawResult) bool {
	if res.status == http.StatusOK && res.ctype == fsproto.ContentTypeOctets {
		return true
	}
	var lr fsproto.LoginResponse
	if json.Unmarshal(res.body, &lr) == nil && lr.Token != "" {
		return true // so is a session token: a refused login opened a session
	}
	if bytes.Contains(res.body, bytes.Repeat([]byte{secretByte}, 8)) {
		return true
	}
	// base64("ZZZZZZ...") == "Wlpa"... — the encoded form of a secret run.
	return bytes.Contains(res.body, []byte("WlpaWlpaWlpa"))
}

// MaliceFrame is one malformed payload frame of the campaign.
type MaliceFrame struct {
	Name string
	Body []byte
}

// MaliceFrames are the malformed frames the campaign sends to /v1/write:
// every one must come back bad_request without the server allocating by a
// claimed length or panicking. Exported as the seed corpus of the server's
// framed-write fuzz target.
func MaliceFrames() []MaliceFrame {
	meta := mustJSON(fsproto.WriteRequest{Name: "x"})
	return []MaliceFrame{
		{"frame_short", []byte{0, 0}},
		{"frame_meta_overrun", append([]byte{0, 0, 0, 100}, meta...)},
		{"frame_meta_max", append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, meta...)},
		{"frame_oversized", fsproto.AppendFrame(nil, meta, bytes.Repeat([]byte{'A'}, fsproto.MaxBodyBytes))},
		{"frame_bad_meta", fsproto.AppendFrame(nil, []byte(`{"name":`), []byte("payload"))},
	}
}

// RunMalice drives the malicious-client campaign against a fair-mode
// fsencrd at base. It provisions a victim tenant with a 0600 encrypted
// secret file, then replays the attack list in a fixed order. The campaign
// is deterministic: fixed identities, fixed order, no randomness.
func RunMalice(base string) (*MaliceReport, error) {
	hc := &http.Client{}

	// Victim: private tenant, 0600 encrypted file full of the secret byte.
	victim := Dial(base)
	defer victim.Close()
	if err := victim.Login("malice-victim", 7, "victim-pw"); err != nil {
		return nil, fmt.Errorf("malice setup: %w", err)
	}
	if err := victim.Create(fsproto.CreateRequest{
		Name: "secret.dat", Perm: 0600, Size: lgPageSize, Encrypted: true,
	}); err != nil {
		return nil, fmt.Errorf("malice setup: %w", err)
	}
	if err := victim.Write(fsproto.WriteRequest{
		Name: "secret.dat", Offset: 0, Data: bytes.Repeat([]byte{secretByte}, lgPageSize),
	}); err != nil {
		return nil, fmt.Errorf("malice setup: %w", err)
	}

	// Attacker: a legitimate session in a different tenant.
	attacker := Dial(base)
	defer attacker.Close()
	if err := attacker.Login("malice-attacker", 1, "attacker-pw"); err != nil {
		return nil, fmt.Errorf("malice setup: %w", err)
	}

	// A second session whose token is then replayed after logout.
	replay := Dial(base)
	defer replay.Close()
	if err := replay.Login("malice-attacker", 2, "replay-pw"); err != nil {
		return nil, fmt.Errorf("malice setup: %w", err)
	}
	replayToken := replay.token
	if err := replay.Logout(); err != nil {
		return nil, fmt.Errorf("malice setup: %w", err)
	}

	readVictim := func(length int) []byte {
		b, _ := json.Marshal(fsproto.ReadRequest{
			Name: "secret.dat", Tenant: "malice-victim", Offset: 0, Length: length,
		})
		return b
	}

	attackerLogin := mustJSON(fsproto.LoginRequest{Tenant: "malice-attacker", UID: 1, Passphrase: "attacker-pw"})

	type attack struct {
		name   string
		method string
		path   string
		token  string
		body   []byte
		want   []string
	}
	attacks := []attack{
		// Session-token abuse: requests with no, forged, or replayed
		// (logged-out) tokens must all die at authentication.
		{"no_token", http.MethodPost, "/v1/read", "",
			readVictim(64), []string{fsproto.CodeAuth}},
		{"forged_token", http.MethodPost, "/v1/read", "t999999999",
			readVictim(64), []string{fsproto.CodeAuth}},
		{"replayed_session", http.MethodPost, "/v1/read", replayToken,
			readVictim(64), []string{fsproto.CodeAuth}},
		// Forged identity: a valid session naming another tenant's
		// namespace, and a login presenting the wrong passphrase for a
		// registered (tenant, uid). The kernel's permission bits and the
		// keyring refuse them; no fallback to "not found" lies.
		{"cross_tenant_override", http.MethodPost, "/v1/read", attacker.token,
			readVictim(64), []string{fsproto.CodePermission, fsproto.CodeWrongPassphrase}},
		{"wrong_passphrase_login", http.MethodPost, "/v1/login", "",
			mustJSON(fsproto.LoginRequest{Tenant: "malice-victim", UID: 7, Passphrase: "guessed"}),
			[]string{fsproto.CodeAuth}},
		// Malformed requests: oversized body (over the 1 MiB bound, so the
		// JSON is cut mid-document), truncated JSON, forged lengths, wrong
		// method. All bad_request — never an allocation or a panic.
		{"oversized_body", http.MethodPost, "/v1/write", attacker.token,
			mustJSON(fsproto.WriteRequest{Name: "x", Data: bytes.Repeat([]byte{'A'}, 2<<20)}),
			[]string{fsproto.CodeBadRequest}},
		{"truncated_body", http.MethodPost, "/v1/read", attacker.token,
			[]byte(`{"name":"secret.dat","len`), []string{fsproto.CodeBadRequest}},
		{"negative_length", http.MethodPost, "/v1/read", attacker.token,
			mustJSON(fsproto.ReadRequest{Name: "secret.dat", Length: -1}),
			[]string{fsproto.CodeBadRequest}},
		{"huge_length", http.MethodPost, "/v1/read", attacker.token,
			readVictim(1 << 30), []string{fsproto.CodeBadRequest}},
		{"get_method", http.MethodGet, "/v1/read", attacker.token,
			nil, []string{fsproto.CodeBadRequest}},
		{"get_method_login", http.MethodGet, "/v1/login", "",
			attackerLogin, []string{fsproto.CodeBadRequest}},
		{"read_beyond_eof", http.MethodPost, "/v1/read", victim.token,
			mustJSON(fsproto.ReadRequest{Name: "secret.dat", Offset: 1 << 40, Length: 64}),
			[]string{fsproto.CodeBadRequest}},
	}
	// Sent as payload frames. First a frame where none is taken: the
	// victim's own token on a well-formed frame, so only the refusal of
	// the frame stands between the request and the secret. Then malformed
	// frames on the endpoint that does take them.
	framed := []attack{
		{"frame_to_read", http.MethodPost, "/v1/read", victim.token,
			fsproto.AppendFrame(nil, readVictim(64), nil), []string{fsproto.CodeBadRequest}},
		{"frame_to_login", http.MethodPost, "/v1/login", "",
			fsproto.AppendFrame(nil, attackerLogin, nil), []string{fsproto.CodeBadRequest}},
	}
	for _, f := range MaliceFrames() {
		framed = append(framed, attack{f.Name, http.MethodPost, "/v1/write", attacker.token,
			f.Body, []string{fsproto.CodeBadRequest}})
	}

	rep := &MaliceReport{}
	run := func(ctype string, attacks []attack) error {
		for _, a := range attacks {
			res, err := rawDo(hc, a.method, base, a.path, ctype, a.token, a.body)
			if err != nil {
				return fmt.Errorf("malice attack %s: %w", a.name, err)
			}
			out := MaliceAttack{
				Name: a.name, WantCodes: a.want,
				GotStatus: res.status, GotCode: res.code,
				Leaked: leaked(res),
			}
			out.Passed = res.status >= 400 && slices.Contains(a.want, res.code)
			rep.add(out)
		}
		return nil
	}
	if err := run(fsproto.ContentTypeJSON, attacks); err != nil {
		return nil, err
	}
	if err := run(fsproto.ContentTypeFrame, framed); err != nil {
		return nil, err
	}

	// From a raw socket, as the second request of a kept connection: framing
	// the request loop must refuse (400, then close) instead of guessing at,
	// each wrapped around the cross-tenant read; two pipelined requests,
	// answered in order; and a path outside /v1, which a connection the loop
	// holds cannot serve.
	post := func(path, headers, body string) string {
		return "POST " + path + " HTTP/1.1\r\nHost: malice\r\nContent-Type: application/json\r\n" +
			fsproto.TokenHeader + ": " + attacker.token + "\r\n" + headers + "\r\n" + body
	}
	length := func(n int) string { return fmt.Sprintf("Content-Length: %d\r\n", n) }
	rv := string(readVictim(64))
	var lines strings.Builder
	for i := 0; i < 65; i++ {
		fmt.Fprintf(&lines, "X-Pad-%d: x\r\n", i)
	}
	refused, denied := []string{fsproto.CodeBadRequest}, []string{fsproto.CodePermission, fsproto.CodeWrongPassphrase}
	sockets := []socketAttack{
		{name: "sock_length_and_chunked", raw: post("/v1/read", length(len(rv))+"Transfer-Encoding: chunked\r\n", rv), want: [][]string{refused}, closes: true},
		{name: "sock_duplicate_length", raw: post("/v1/read", length(len(rv))+length(len(rv)), rv), want: [][]string{refused}, closes: true},
		{name: "sock_negative_length", raw: post("/v1/read", "Content-Length: -1\r\n", rv), want: [][]string{refused}, closes: true},
		{name: "sock_obs_fold", raw: post("/v1/read", "X-Pad: a\r\n\tb\r\n"+length(len(rv)), rv), want: [][]string{refused}, closes: true},
		{name: "sock_long_header_line", raw: post("/v1/read", "X-Pad: "+strings.Repeat("a", 5<<10)+"\r\n"+length(len(rv)), rv), want: [][]string{refused}, closes: true},
		{name: "sock_many_header_lines", raw: post("/v1/read", lines.String()+length(len(rv)), rv), want: [][]string{refused}, closes: true},
		{name: "sock_short_body_fin", raw: post("/v1/read", length(len(rv)+10), rv), fin: true, want: [][]string{refused}, closes: true},
		{name: "sock_pipelined", raw: post("/v1/read", length(len(rv)), rv) + "GET /v1/read HTTP/1.1\r\nHost: malice\r\n\r\n",
			want: [][]string{denied, refused}},
		{name: "sock_metrics_on_data_conn", raw: "GET /metrics HTTP/1.1\r\nHost: malice\r\n\r\n", want: [][]string{{fsproto.CodeNotFound}}, closes: true},
	}
	warm := post("/v1/stat", length(len(`{"name":"none"}`)), `{"name":"none"}`)
	for _, a := range sockets {
		answers, closed, err := a.run(base, warm)
		if err != nil {
			return nil, fmt.Errorf("malice attack %s: %w", a.name, err)
		}
		// The row reports the first answer that was wrong, else the last.
		out := MaliceAttack{Name: a.name, Passed: closed == a.closes}
		for i, res := range answers {
			out.Leaked = out.Leaked || leaked(res)
			if !out.Passed && out.GotStatus != 0 {
				continue
			}
			out.WantCodes, out.GotStatus, out.GotCode = a.want[i], res.status, res.code
			out.Passed = out.Passed && res.status >= 400 && res.status < 500 && slices.Contains(a.want[i], res.code)
		}
		rep.add(out)
	}

	// Control: the victim still reads its own data back intact — the
	// attacks refused service to the attacker, not to the owner.
	data, err := victim.Read(fsproto.ReadRequest{Name: "secret.dat", Offset: 0, Length: 64})
	if err != nil {
		return nil, fmt.Errorf("malice control read: %w", err)
	}
	for _, b := range data {
		if b != secretByte {
			return nil, fmt.Errorf("malice control read: victim data corrupted")
		}
	}
	return rep, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
