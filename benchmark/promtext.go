package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promSample maps series keys to values. A key is the family name
// followed by its labels sorted by name, e.g.
// `asmserve_step_seconds_sum{op="next"}`; unlabeled series are the bare
// name.
type promSample map[string]float64

// parseProm reads a Prometheus text exposition (format 0.0.4), skipping
// comments and blank lines. Label values may not contain '}' or ','
// (asmserve's never do); a malformed sample line is an error.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		// A timestamp may follow the value.
		valStr, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: value %q: %w", n, valStr, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// splitSeries splits a sample line into its canonical series key and
// the text after it.
func splitSeries(line string) (key, rest string, err error) {
	open := strings.IndexByte(line, '{')
	sp := strings.IndexByte(line, ' ')
	if open < 0 || (sp >= 0 && sp < open) {
		if sp < 0 {
			return "", "", fmt.Errorf("no value in %q", line)
		}
		return line[:sp], line[sp+1:], nil
	}
	end := strings.IndexByte(line[open:], '}')
	if end < 0 {
		return "", "", fmt.Errorf("unterminated labels in %q", line)
	}
	end += open
	var labels []string
	if body := line[open+1 : end]; body != "" {
		for _, kv := range strings.Split(body, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", fmt.Errorf("bad label %q in %q", kv, line)
			}
			labels = append(labels, strings.TrimSpace(k)+"="+v)
		}
	}
	sort.Strings(labels)
	return series(line[:open], labels...), line[end+1:], nil
}

// series builds the canonical key of family name with labels given as
// `k="v"` strings, which must already be sorted.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// delta returns after[key] − before[key].
func delta(before, after promSample, key string) float64 { return after[key] - before[key] }
