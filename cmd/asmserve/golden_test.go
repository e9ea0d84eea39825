package main

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"asti/internal/serve"
)

// golden_test.go pins every byte asmserve serves on the read-only routes
// (/metrics, the status and list bodies, /healthz) for one fixed,
// deterministic server state. Timing values are the only thing masked:
// the step histograms' _sum/_bucket samples and the per-session
// idle_seconds/select_seconds. Any other drift — a renamed field, a
// reordered family, a changed HELP string, an exponent-formatted
// integer — fails here. Regenerate deliberately with
//
//	go test ./cmd/asmserve -run TestWireGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the wire golden files under testdata/")

// busyEnv is the "busy" conformance fixture: a journaled server holding
// one session with a pending batch, one done, one passivated, plus one
// created and deleted — every phase the census can report. It returns
// the three live sessions' base URLs in that order.
func busyEnv(t *testing.T) (*confEnv, []string) {
	t.Helper()
	e := newConfEnv(t, 16, serve.WithJournalDir(t.TempDir()))
	pending := e.pending()
	done := e.done()
	parked := e.create()
	id := parked[strings.LastIndex(parked, "/")+1:]
	if ok, err := e.mgr.Passivate(id); err != nil || !ok {
		t.Fatalf("Passivate: ok=%v err=%v", ok, err)
	}
	e.deleted()
	return e, []string{pending, done, parked}
}

var (
	// stepTimingRe matches the step histograms' wall-clock samples.
	stepTimingRe = regexp.MustCompile(`(?m)^(asmserve_step_seconds_(?:sum|bucket)\S*) \S+$`)
	// statusTimingRe matches the per-session wall-clock status fields.
	statusTimingRe = regexp.MustCompile(`"(idle_seconds|select_seconds)":[-+0-9.eE]+`)
)

// maskTimings replaces every timing value in a wire body with a fixed
// token, leaving all other bytes untouched.
func maskTimings(body string) string {
	body = stepTimingRe.ReplaceAllString(body, "$1 <timing>")
	return statusTimingRe.ReplaceAllString(body, `"$1":"<timing>"`)
}

// getBody fetches url and returns its status line and body verbatim.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Status + "\n" + string(body)
}

// TestWireGolden compares the busy fixture's wire bodies against
// testdata/wire_busy.golden. The session GETs come last: a status
// lookup reactivates the passivated session, which the earlier bodies
// must still see parked.
func TestWireGolden(t *testing.T) {
	e, sessions := busyEnv(t)
	var b strings.Builder
	section := func(route, body string) {
		b.WriteString("=== GET " + route + "\n")
		b.WriteString(maskTimings(body))
	}
	section("/metrics", getBody(t, e.ts.URL+"/metrics"))
	section("/v1/sessions", getBody(t, e.ts.URL+"/v1/sessions"))
	section("/healthz", getBody(t, e.ts.URL+"/healthz"))
	for _, base := range sessions {
		route := strings.TrimPrefix(base, e.ts.URL)
		section(route, getBody(t, base))
	}
	got := b.String()

	path := filepath.Join("testdata", "wire_busy.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire bytes drifted from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
