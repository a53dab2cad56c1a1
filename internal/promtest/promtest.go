// Package promtest checks Prometheus text expositions in tests: the one
// parser behind the /metrics/prom tests of both binaries, which render
// through one writer (server.Edge.ServeProm) — tagserved_* from
// internal/server, taggate_* from internal/cluster.
package promtest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// sampleLine matches one sample line of the text exposition format 0.0.4.
var sampleLine = regexp.MustCompile(`^[a-z_][a-z0-9_]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? ((\+Inf)|([0-9eE.+-]+))$`)

// Parse reads a text exposition into series → value. It refuses a line
// that is not a well-formed sample of a metric named prefix…, a sample
// whose family had no # TYPE line before it (a histogram's _bucket, _sum
// and _count belong to their family), and a series — name{labels} —
// that appears twice: Prometheus rejects the whole scrape for that, and
// a map would silently keep the last one.
func Parse(prefix, text string) (map[string]float64, error) {
	samples := map[string]float64{}
	types := map[string]string{} // family → its # TYPE
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, prefix) || !sampleLine.MatchString(line) {
			return nil, fmt.Errorf("malformed exposition line: %q", line)
		}
		if name := line[:strings.IndexAny(line, "{ ")]; !typed(types, name) {
			return nil, fmt.Errorf("sample %q has no # TYPE line before it", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(strings.Replace(line[sp+1:], "+Inf", "inf", 1), 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable value in %q: %v", line, err)
		}
		if _, dup := samples[line[:sp]]; dup {
			return nil, fmt.Errorf("series %s appears twice in one exposition", line[:sp])
		}
		samples[line[:sp]] = v
	}
	return samples, nil
}

// typed reports whether a sample named name belongs to a family already
// declared in types.
func typed(types map[string]string, name string) bool {
	if _, ok := types[name]; ok {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return true
		}
	}
	return false
}
