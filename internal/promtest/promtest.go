// Package promtest checks Prometheus text expositions in tests: the one
// parser behind the /metrics/prom tests of both binaries (tagserved_*
// from internal/server, taggate_* from internal/cluster).
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
// that is not a well-formed sample of a metric named prefix…, and a
// series — name{labels} — that appears twice: Prometheus rejects the
// whole scrape for that, and a map would silently keep the last one.
func Parse(prefix, text string) (map[string]float64, error) {
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, prefix) || !sampleLine.MatchString(line) {
			return nil, fmt.Errorf("malformed exposition line: %q", line)
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
