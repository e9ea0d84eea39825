package main

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promlint_test.go validates GET /metrics against the Prometheus text
// exposition format (version 0.0.4) without importing a Prometheus
// client: every line must parse, every family must carry a non-empty
// HELP and a valid TYPE exactly once ahead of its samples, counters and
// only counters end in _total, series must be unique and grouped by
// family with one label-key set per family, and histograms must be
// cumulative with le="+Inf" equal to their _count. A scrape that
// violates any of these is silently dropped or misread by real
// Prometheus servers — drift here is an outage of the monitoring
// contract, not a cosmetic bug.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe splits `name{labels} value` / `name value` (no timestamps:
	// the server never emits them).
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// promSample is one parsed series sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// promFamily aggregates one metric family's declarations and samples.
type promFamily struct {
	help, typ string
	samples   []promSample
}

// reporter is the part of *testing.T the exposition lint reports
// through, so TestParseExpositionRules can capture its findings.
type reporter interface {
	Helper()
	Errorf(format string, args ...any)
}

// familyOf maps a sample name to its family name: histogram samples
// drop the _bucket/_sum/_count suffix when the base is a declared
// histogram family.
func familyOf(name string, fams map[string]*promFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := fams[base]; f != nil && f.typ == "histogram" {
				return base
			}
		}
	}
	return name
}

// parseExposition parses and structurally validates one exposition body,
// reporting violations through t.Errorf. It returns the families for
// content-level checks.
func parseExposition(t reporter, body string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	order := []string{} // family grouping order
	lastFamily := ""    // current sample group
	closed := map[string]bool{}
	seriesSeen := map[string]bool{}

	for i, line := range strings.Split(body, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Errorf("line %d: malformed comment %q (only # HELP / # TYPE allowed)", lineNo, line)
				continue
			}
			name := parts[2]
			if !promNameRe.MatchString(name) {
				t.Errorf("line %d: invalid metric name %q", lineNo, name)
				continue
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{}
				fams[name] = f
				order = append(order, name)
			}
			switch parts[1] {
			case "HELP":
				if f.help != "" {
					t.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				f.help = parts[3]
			case "TYPE":
				if f.typ != "" {
					t.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(f.samples) > 0 {
					t.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = parts[3]
				default:
					t.Errorf("line %d: unknown TYPE %q for %s", lineNo, parts[3], name)
				}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample line %q", lineNo, line)
			continue
		}
		name, labelBlob, valueStr := m[1], m[3], m[4]
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			t.Errorf("line %d: bad sample value %q: %v", lineNo, valueStr, err)
			continue
		}
		labels := map[string]string{}
		for _, lm := range labelRe.FindAllStringSubmatch(labelBlob, -1) {
			if !promLabelRe.MatchString(lm[1]) {
				t.Errorf("line %d: invalid label name %q", lineNo, lm[1])
			}
			if _, dup := labels[lm[1]]; dup {
				t.Errorf("line %d: duplicate label %q", lineNo, lm[1])
			}
			labels[lm[1]] = lm[2]
		}
		fam := familyOf(name, fams)
		f := fams[fam]
		if f == nil || f.typ == "" {
			t.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
			if f == nil {
				f = &promFamily{}
				fams[fam] = f
				order = append(order, fam)
			}
		}
		if f.help == "" {
			t.Errorf("line %d: sample %s has no HELP declaration", lineNo, name)
		}
		// Grouping: once a family's sample block ends, it must not resume.
		if fam != lastFamily {
			if closed[fam] {
				t.Errorf("line %d: family %s has non-contiguous samples", lineNo, fam)
			}
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			lastFamily = fam
		}
		// Series uniqueness: name plus the sorted label set.
		keyParts := make([]string, 0, len(labels))
		for k, v := range labels {
			keyParts = append(keyParts, k+"="+v)
		}
		sort.Strings(keyParts)
		series := name + "{" + strings.Join(keyParts, ",") + "}"
		if seriesSeen[series] {
			t.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		seriesSeen[series] = true
		f.samples = append(f.samples, promSample{name: name, labels: labels, value: value, line: lineNo})
	}

	for _, name := range order {
		f := fams[name]
		if f.typ == "" {
			t.Errorf("family %s: missing TYPE", name)
		}
		if f.help == "" {
			t.Errorf("family %s: missing HELP", name)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s: declared but has no samples", name)
		}
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("family %s: counter without the _total suffix", name)
		}
		if f.typ != "" && f.typ != "counter" && strings.HasSuffix(name, "_total") {
			t.Errorf("family %s: %s with the _total suffix (it promises counter semantics)", name, f.typ)
		}
		keySet := ""
		for i, s := range f.samples {
			keys := make([]string, 0, len(s.labels))
			for k := range s.labels {
				if k != "le" {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			if ks := strings.Join(keys, ","); i == 0 {
				keySet = ks
			} else if ks != keySet {
				t.Errorf("line %d: family %s has label keys {%s}, earlier samples {%s}", s.line, name, ks, keySet)
			}
		}
		for _, s := range f.samples {
			if f.typ == "counter" && s.value < 0 {
				t.Errorf("line %d: counter %s is negative (%g)", s.line, s.name, s.value)
			}
		}
		if f.typ == "histogram" {
			validateHistogram(t, name, f)
		}
	}
	return fams
}

// validateHistogram checks one histogram family per label partition
// (all labels except le): buckets must be cumulative and non-decreasing,
// the +Inf bucket must exist and equal _count, and _sum/_count must each
// appear exactly once.
func validateHistogram(t reporter, name string, f *promFamily) {
	t.Helper()
	type part struct {
		buckets  []promSample
		inf      *promSample
		sum, cnt *promSample
	}
	parts := map[string]*part{}
	key := func(labels map[string]string) string {
		kv := make([]string, 0, len(labels))
		for k, v := range labels {
			if k != "le" {
				kv = append(kv, k+"="+v)
			}
		}
		sort.Strings(kv)
		return strings.Join(kv, ",")
	}
	for i := range f.samples {
		s := f.samples[i]
		k := key(s.labels)
		p := parts[k]
		if p == nil {
			p = &part{}
			parts[k] = p
		}
		switch {
		case s.name == name+"_bucket":
			if s.labels["le"] == "+Inf" {
				p.inf = &f.samples[i]
			} else {
				p.buckets = append(p.buckets, s)
			}
		case s.name == name+"_sum":
			if p.sum != nil {
				t.Errorf("line %d: duplicate %s_sum{%s}", s.line, name, k)
			}
			p.sum = &f.samples[i]
		case s.name == name+"_count":
			if p.cnt != nil {
				t.Errorf("line %d: duplicate %s_count{%s}", s.line, name, k)
			}
			p.cnt = &f.samples[i]
		}
	}
	for k, p := range parts {
		if p.inf == nil {
			t.Errorf("histogram %s{%s}: no le=\"+Inf\" bucket", name, k)
			continue
		}
		if p.cnt == nil || p.sum == nil {
			t.Errorf("histogram %s{%s}: missing _sum or _count", name, k)
			continue
		}
		prevLe := -1.0
		prev := -1.0
		for _, b := range p.buckets {
			le, err := strconv.ParseFloat(b.labels["le"], 64)
			if err != nil {
				t.Errorf("line %d: bad le %q", b.line, b.labels["le"])
				continue
			}
			if le <= prevLe {
				t.Errorf("line %d: histogram %s{%s} buckets out of order (le %g after %g)", b.line, name, k, le, prevLe)
			}
			prevLe = le
			if b.value < prev {
				t.Errorf("line %d: histogram %s{%s} not cumulative (%g after %g)", b.line, name, k, b.value, prev)
			}
			prev = b.value
		}
		if p.inf.value < prev {
			t.Errorf("histogram %s{%s}: +Inf bucket %g below last bucket %g", name, k, p.inf.value, prev)
		}
		if p.inf.value != p.cnt.value {
			t.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", name, k, p.inf.value, p.cnt.value)
		}
	}
}

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type %q, want text/plain version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExpositionValid validates the scrape of a fresh server
// (all-zero state) and of a busy journaled one (sessions in several
// phases, passivation churn, step histograms populated) against the
// exposition grammar.
func TestMetricsExpositionValid(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		e := newConfEnv(t, 16)
		fams := parseExposition(t, scrape(t, e.ts.URL))
		if len(fams) < 10 {
			t.Errorf("only %d families on a fresh server — exposition truncated?", len(fams))
		}
	})

	t.Run("busy", func(t *testing.T) {
		e, _ := busyEnv(t)
		fams := parseExposition(t, scrape(t, e.ts.URL))
		// Every declared family must be present: the table's rows plus
		// the hand-written census and step histograms around it.
		want := []string{"asmserve_sessions", "asmserve_step_seconds"}
		for _, f := range families {
			want = append(want, f.name)
		}
		for _, name := range want {
			if fams[name] == nil {
				t.Errorf("family %s missing from the exposition", name)
			}
		}
		if len(fams) != len(want) {
			t.Errorf("exposition has %d families, want the %d declared", len(fams), len(want))
		}
		// Spot-check values the fixture pinned down.
		expect := map[string]float64{
			`asmserve_sessions{phase="passivated"}`: 1,
			`asmserve_sessions_created_total`:       4,
			`asmserve_sessions_closed_total`:        1,
		}
		for _, f := range fams {
			for _, s := range f.samples {
				key := s.name
				if len(s.labels) > 0 {
					kv := make([]string, 0, len(s.labels))
					for k, v := range s.labels {
						kv = append(kv, fmt.Sprintf("%s=%q", k, v))
					}
					sort.Strings(kv)
					key += "{" + strings.Join(kv, ",") + "}"
				}
				if want, ok := expect[key]; ok && s.value != want {
					t.Errorf("%s = %g, want %g", key, s.value, want)
				}
				delete(expect, key)
			}
		}
		for key := range expect {
			t.Errorf("series %s not found in the exposition", key)
		}
		// The step histograms saw the fixtures' traffic.
		var nextCount float64 = -1
		for _, s := range fams["asmserve_step_seconds"].samples {
			if s.name == "asmserve_step_seconds_count" && s.labels["op"] == "next" {
				nextCount = s.value
			}
		}
		if nextCount < 2 {
			t.Errorf("asmserve_step_seconds_count{op=next} = %g, want >= 2", nextCount)
		}
	})
}

// findings is a reporter that records the lint's messages.
type findings []string

func (f *findings) Helper() {}

func (f *findings) Errorf(format string, args ...any) {
	*f = append(*f, fmt.Sprintf(format, args...))
}

// TestParseExpositionRules feeds the lint one broken exposition per
// naming and declaration rule and checks that rule fires, so a lint
// that silently stops checking fails here rather than passing every
// live scrape.
func TestParseExpositionRules(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"unknown kind", "# HELP a_total h\n# TYPE a_total countr\na_total 1\n", "unknown TYPE"},
		{"counter without _total", "# HELP a h\n# TYPE a counter\na 1\n", "counter without the _total suffix"},
		{"gauge with _total", "# HELP a_total h\n# TYPE a_total gauge\na_total 1\n", "gauge with the _total suffix"},
		{"empty help", "# HELP a \n# TYPE a gauge\na 1\n", "missing HELP"},
		{"duplicate help", "# HELP a h\n# HELP a h\n# TYPE a gauge\na 1\n", "duplicate HELP"},
		{"duplicate type", "# HELP a h\n# TYPE a gauge\n# TYPE a gauge\na 1\n", "duplicate TYPE"},
		{"invalid name", "# HELP 1a h\n", "invalid metric name"},
		{"undeclared sample", "a 1\n", "no TYPE declaration"},
		{"two label-key sets", "# HELP a h\n# TYPE a gauge\na{x=\"1\"} 1\na{y=\"1\"} 1\n", "label keys {y}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got findings
			parseExposition(&got, tc.body)
			for _, msg := range got {
				if strings.Contains(msg, tc.want) {
					return
				}
			}
			t.Errorf("no finding containing %q; got %q", tc.want, got)
		})
	}
	var clean findings
	parseExposition(&clean, "# HELP a_total h\n# TYPE a_total counter\na_total{x=\"1\"} 1\na_total{x=\"2\"} 2\n")
	if len(clean) != 0 {
		t.Errorf("valid exposition flagged: %q", clean)
	}
}
