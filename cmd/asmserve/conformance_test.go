package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"asti/internal/fault"
	"asti/internal/gen"
	"asti/internal/graph"
	"asti/internal/serve"
)

// conformance_test.go is the executable form of docs/API.md: one
// table-driven case per route × error class in the error-model table,
// plus key-set pins for every success wire shape. If either drifts from
// the document, a test here must fail — update both together.

// confEnv is one server instance the conformance cases run against,
// with fixture helpers for sessions in each lifecycle phase.
type confEnv struct {
	t   *testing.T
	ts  *httptest.Server
	mgr *serve.Manager
}

// newConfEnv builds a server with a working dataset ("tiny"), a loader
// that always fails ("bad"), the given session limit, and any extra
// manager options (journal dir, durability policy, breaker cooldown).
func newConfEnv(t *testing.T, limit int, opts ...serve.ManagerOption) *confEnv {
	t.Helper()
	reg := serve.NewRegistry()
	if err := reg.RegisterLoader("tiny", func() (*graph.Graph, error) {
		spec, err := gen.Dataset("synth-nethept")
		if err != nil {
			return nil, err
		}
		return spec.Generate(0.05)
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterLoader("bad", func() (*graph.Graph, error) {
		return nil, fmt.Errorf("loader failed on purpose")
	}); err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, limit, opts...)
	ts := httptest.NewServer(newHandler(mgr, 0))
	t.Cleanup(func() {
		ts.Close()
		mgr.CloseAll()
	})
	return &confEnv{t: t, ts: ts, mgr: mgr}
}

// create makes a fresh session (phase "propose") and returns its base URL.
func (e *confEnv) create() string {
	e.t.Helper()
	var st serve.Status
	if code := call(e.t, "POST", e.ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 7, Workers: 1}, &st); code != http.StatusCreated {
		e.t.Fatalf("fixture create: code %d", code)
	}
	return e.ts.URL + "/v1/sessions/" + st.ID
}

// pending makes a session with an unobserved batch (phase "observe").
func (e *confEnv) pending() string {
	e.t.Helper()
	base := e.create()
	var batch batchResponse
	if code := call(e.t, "POST", base+"/next", nil, &batch); code != 200 {
		e.t.Fatalf("fixture next: code %d", code)
	}
	return base
}

// done drives a session to η (phase "done"): η=1, so observing the
// first batch's own seeds reaches the threshold immediately.
func (e *confEnv) done() string {
	e.t.Helper()
	var st serve.Status
	if code := call(e.t, "POST", e.ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", Eta: 1, Seed: 7, Workers: 1}, &st); code != http.StatusCreated {
		e.t.Fatalf("fixture create: code %d", code)
	}
	base := e.ts.URL + "/v1/sessions/" + st.ID
	var batch batchResponse
	if code := call(e.t, "POST", base+"/next", nil, &batch); code != 200 {
		e.t.Fatalf("fixture next: code %d", code)
	}
	var prog progressResponse
	if code := call(e.t, "POST", base+"/observe", observeRequest{Activated: batch.Seeds}, &prog); code != 200 {
		e.t.Fatalf("fixture observe: code %d", code)
	}
	if !prog.Done {
		e.t.Fatalf("fixture session not done after observing with eta=1: %+v", prog)
	}
	return base
}

// deleted closes a session and returns its (now dangling) base URL.
func (e *confEnv) deleted() string {
	e.t.Helper()
	base := e.create()
	if code := call(e.t, "DELETE", base, nil, nil); code != 200 {
		e.t.Fatalf("fixture delete: code %d", code)
	}
	return base
}

// conformanceCase is one row of the executable error-model table.
type conformanceCase struct {
	name string
	// request returns (method, url, raw body). Fixtures are built inside
	// so every case is self-contained.
	request func(e *confEnv) (string, string, []byte)
	// wantCode is the documented status.
	wantCode int
	// wantRetryAfter requires a positive integer Retry-After header
	// (the 429/503 contract).
	wantRetryAfter bool
}

// TestConformanceErrorModel runs the docs/API.md error table end to end
// against a live handler: status code, the `{"error": "..."}` body shape
// on every error, and Retry-After on the retryable rejections.
func TestConformanceErrorModel(t *testing.T) {
	cases := []conformanceCase{
		// 400 — malformed requests.
		{name: "400 create broken JSON", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":`)
			}},
		{name: "400 create unknown field", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"tiny","worker":4}`)
			}},
		{name: "400 create trailing data", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"tiny"} extra`)
			}},
		{name: "400 create unknown model", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"tiny","model":"SIR"}`)
			}},
		{name: "400 create unknown policy", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"tiny","policy":"GREEDY"}`)
			}},
		{name: "400 create epsilon out of range", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"tiny","epsilon":2}`)
			}},
		{name: "400 create eta beyond n", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"tiny","eta":1099511627776}`)
			}},
		{name: "400 observe node out of range", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.pending() + "/observe", []byte(`{"activated":[1073741824]}`)
			}},
		{name: "400 observe unknown field", wantCode: 400,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.pending() + "/observe", []byte(`{"activated":[],"activate":[]}`)
			}},

		// 404 — the named thing does not exist.
		{name: "404 status unknown id", wantCode: 404,
			request: func(e *confEnv) (string, string, []byte) {
				return "GET", e.ts.URL + "/v1/sessions/s999", nil
			}},
		{name: "404 next unknown id", wantCode: 404,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions/s999/next", nil
			}},
		{name: "404 observe unknown id", wantCode: 404,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions/s999/observe", []byte(`{"activated":[]}`)
			}},
		{name: "404 delete unknown id", wantCode: 404,
			request: func(e *confEnv) (string, string, []byte) {
				return "DELETE", e.ts.URL + "/v1/sessions/s999", nil
			}},
		{name: "404 create unknown dataset", wantCode: 404,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"nope"}`)
			}},
		{name: "404 status after delete", wantCode: 404,
			request: func(e *confEnv) (string, string, []byte) {
				return "GET", e.deleted(), nil
			}},

		// 409 — lifecycle conflicts.
		{name: "409 next while batch pending", wantCode: 409,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.pending() + "/next", nil
			}},
		{name: "409 observe before next", wantCode: 409,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.create() + "/observe", []byte(`{"activated":[]}`)
			}},
		{name: "409 double observe", wantCode: 409,
			request: func(e *confEnv) (string, string, []byte) {
				base := e.pending()
				if code := call(e.t, "POST", base+"/observe", observeRequest{}, nil); code != 200 {
					e.t.Fatalf("fixture observe: code %d", code)
				}
				return "POST", base + "/observe", []byte(`{"activated":[]}`)
			}},
		{name: "409 next after done", wantCode: 409,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.done() + "/next", nil
			}},

		// 413 — oversized bodies (the cap is 8 MiB).
		{name: "413 oversized observe body", wantCode: 413,
			request: func(e *confEnv) (string, string, []byte) {
				big := bytes.Repeat([]byte("1234567,"), (8<<20)/8+1)
				body := append([]byte(`{"activated":[`), big...)
				body = append(body, []byte(`1]}`)...)
				return "POST", e.pending() + "/observe", body
			}},
		{name: "413 oversized create body", wantCode: 413,
			request: func(e *confEnv) (string, string, []byte) {
				body := append([]byte(`{"dataset":"`), bytes.Repeat([]byte("x"), 9<<20)...)
				body = append(body, []byte(`"}`)...)
				return "POST", e.ts.URL + "/v1/sessions", body
			}},

		// 500 — server-side failure.
		{name: "500 dataset loader failure", wantCode: 500,
			request: func(e *confEnv) (string, string, []byte) {
				return "POST", e.ts.URL + "/v1/sessions", []byte(`{"dataset":"bad"}`)
			}},
	}

	env := newConfEnv(t, 64)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method, url, body := tc.request(env)
			runConformanceCase(t, env, tc, method, url, body)
		})
	}

	// 429 needs its own single-slot server.
	t.Run("429 create over session limit", func(t *testing.T) {
		e := newConfEnv(t, 1)
		e.create()
		runConformanceCase(t, e, conformanceCase{wantCode: 429, wantRetryAfter: true},
			"POST", e.ts.URL+"/v1/sessions", []byte(`{"dataset":"tiny","eta_frac":0.3,"seed":9}`))
	})
}

// TestConformancePoisonedSessionIs410 pins the 410 row: a fail-stop
// session whose journal died answers every subsequent step with Gone,
// while status and list keep working and explain why via last_failure.
// Fault plans are process-global — not parallel with other tests.
func TestConformancePoisonedSessionIs410(t *testing.T) {
	dir := t.TempDir()
	e := newConfEnv(t, 16, serve.WithJournalDir(dir))
	base := e.create()

	plan, err := fault.Parse("journal/append-write:times=0:err=io:path=" + dir)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	t.Cleanup(fault.Deactivate)
	// The failing step itself: durability lost mid-request, fail-stop
	// poisons the session. The code for this first failure is not part of
	// the 410 contract — only that it is an error.
	if code := call(t, "POST", base+"/next", nil, nil); code/100 == 2 {
		t.Fatalf("next with dead journal: code %d, want an error", code)
	}
	fault.Deactivate()

	runConformanceCase(t, e, conformanceCase{wantCode: 410}, "POST", base+"/next", nil)
	runConformanceCase(t, e, conformanceCase{wantCode: 410}, "POST", base+"/observe", []byte(`{"activated":[]}`))
	// Status still serves the corpse, with the poisoning recorded.
	var st serve.Status
	if code := call(t, "GET", base, nil, &st); code != 200 {
		t.Fatalf("status on poisoned session: code %d", code)
	}
	if st.Phase != "closed" || st.LastFailure == "" {
		t.Errorf("poisoned status %+v, want phase=closed with last_failure set", st)
	}
}

// TestConformanceBreaker503 pins the 503 row at create: with the
// journal-health breaker open, creates are refused with a Retry-After
// bounded by the cooldown. Not parallel (global fault plan).
func TestConformanceBreaker503(t *testing.T) {
	dir := t.TempDir()
	const cooldown = 30 * time.Second
	e := newConfEnv(t, 16, serve.WithJournalDir(dir), serve.WithBreakerCooldown(cooldown))

	plan, err := fault.Parse("journal/create-open:times=1:err=io:path=" + dir)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	t.Cleanup(fault.Deactivate)
	if code := call(t, "POST", e.ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 1}, nil); code/100 == 2 {
		t.Fatalf("create with injected journal failure: code %d, want an error", code)
	}
	resp := runConformanceCase(t, e, conformanceCase{wantCode: 503, wantRetryAfter: true},
		"POST", e.ts.URL+"/v1/sessions", []byte(`{"dataset":"tiny","eta_frac":0.3,"seed":2}`))
	if secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")); secs > int(cooldown.Seconds()) {
		t.Errorf("Retry-After %d exceeds the breaker cooldown %v", secs, cooldown)
	}
}

// runConformanceCase issues one request and applies the shared error
// contract: documented status code, `{"error": "..."}` as the exact
// body shape, JSON content type, and Retry-After where required.
func runConformanceCase(t *testing.T, e *confEnv, tc conformanceCase, method, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != tc.wantCode {
		t.Fatalf("code %d, want %d (body %s)", resp.StatusCode, tc.wantCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	// The documented error shape: a JSON object with exactly one key,
	// "error", holding a non-empty message.
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, raw)
	}
	if len(obj) != 1 {
		t.Errorf("error body has keys %v, want exactly [error]", keysOf(obj))
	}
	msg, ok := obj["error"].(string)
	if !ok || msg == "" {
		t.Errorf("error body %s, want non-empty \"error\" string", raw)
	}
	ra := resp.Header.Get("Retry-After")
	if tc.wantRetryAfter {
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Errorf("Retry-After = %q, want a positive integer of seconds", ra)
		}
	} else if ra != "" {
		t.Errorf("unexpected Retry-After %q on a %d", ra, tc.wantCode)
	}
	return resp
}

func keysOf(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// getKeys issues a request and returns the sorted key set of its JSON
// object response.
func getKeys(t *testing.T, method, url string, body any) []string {
	t.Helper()
	var obj map[string]any
	if code := call(t, method, url, body, &obj); code/100 != 2 {
		t.Fatalf("%s %s: code %d", method, url, code)
	}
	return keysOf(obj)
}

// TestConformanceWireShapes pins the exact key set of every success
// response against docs/API.md. A field added, renamed, or dropped on
// the wire must show up here (and in the document) deliberately.
func TestConformanceWireShapes(t *testing.T) {
	e := newConfEnv(t, 16)

	statusKeys := []string{
		"activated", "checkpoints", "dataset", "done", "durable", "eta",
		"eta_i", "id", "idle_seconds", "last_checkpoint_round", "model",
		"n", "phase", "policy", "pool_bytes", "passivations", "round",
		"sampler_version", "seeds", "select_seconds",
	}
	sort.Strings(statusKeys)

	// POST /v1/sessions → status object (no pending, no failure fields).
	var st serve.Status
	if code := call(t, "POST", e.ts.URL+"/v1/sessions",
		createRequest{Dataset: "tiny", EtaFrac: 0.3, Seed: 3, Workers: 1}, &st); code != 201 {
		t.Fatalf("create: code %d", code)
	}
	base := e.ts.URL + "/v1/sessions/" + st.ID
	if got := getKeys(t, "GET", base, nil); fmt.Sprint(got) != fmt.Sprint(statusKeys) {
		t.Errorf("status keys\n got %v\nwant %v", got, statusKeys)
	}

	// POST next → batch shape; the status now carries "pending" too.
	if got, want := getKeys(t, "POST", base+"/next", nil), []string{"id", "round", "seeds"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("batch keys %v, want %v", got, want)
	}
	withPending := append([]string{"pending"}, statusKeys...)
	sort.Strings(withPending)
	if got := getKeys(t, "GET", base, nil); fmt.Sprint(got) != fmt.Sprint(withPending) {
		t.Errorf("status-with-pending keys\n got %v\nwant %v", got, withPending)
	}

	// POST observe → progress shape.
	if got, want := getKeys(t, "POST", base+"/observe", observeRequest{}),
		[]string{"activated", "done", "eta_i", "id", "newly_activated", "round"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("progress keys %v, want %v", got, want)
	}

	// Collections and scalars.
	if got, want := getKeys(t, "GET", e.ts.URL+"/v1/datasets", nil), []string{"datasets"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("datasets keys %v, want %v", got, want)
	}
	if got, want := getKeys(t, "GET", e.ts.URL+"/v1/sessions", nil), []string{"sessions"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("list keys %v, want %v", got, want)
	}
	if got, want := getKeys(t, "DELETE", base, nil), []string{"closed"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delete keys %v, want %v", got, want)
	}

	healthKeys := []string{
		"checkpoint_every", "checkpoint_restores", "checkpoints",
		"compactions", "degraded_total", "durability_policy",
		"idle_ttl_seconds", "journal", "journal_healthy",
		"journal_retries", "ok", "passivated", "passivations",
		"poisoned_total", "reactivations", "recovered_sessions", "sessions",
	}
	if got := getKeys(t, "GET", e.ts.URL+"/healthz", nil); fmt.Sprint(got) != fmt.Sprint(healthKeys) {
		t.Errorf("healthz keys\n got %v\nwant %v", got, healthKeys)
	}
}

// TestConformanceMuxLevelErrors documents the transport-level errors the
// Go mux produces before any handler runs: unknown paths are 404 and
// wrong methods on known paths are 405 with an Allow header. These are
// the two deviations from the JSON error body contract.
func TestConformanceMuxLevelErrors(t *testing.T) {
	e := newConfEnv(t, 4)
	resp := doRaw(t, "GET", e.ts.URL+"/v1/nope", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: code %d, want 404", resp.StatusCode)
	}
	resp = doRaw(t, "PUT", e.ts.URL+"/v1/sessions", []byte(`{}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("wrong method: code %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") == "" {
		t.Error("405 without Allow header")
	}
}
