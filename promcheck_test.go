package incentivetag_test

// The /metrics/prom checks TestE2E holds both binaries to, over
// promtest.Parse (the line grammar, # TYPE before every sample, no
// series twice), and the test that holds the checks themselves to
// falsified input.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"incentivetag/internal/promtest"
)

// promSum is the sum of the series of a parsed exposition whose
// name{labels} starts with prefix.
func promSum(samples map[string]float64, prefix string) float64 {
	sum := 0.0
	for series, v := range samples {
		if strings.HasPrefix(series, prefix) {
			sum += v
		}
	}
	return sum
}

// checkPromSum requires the series that start with prefix to add up to
// want: with prefix a route's requests_total, admitted + shed +
// timed_out == sent.
func checkPromSum(samples map[string]float64, prefix string, want int) error {
	if got := promSum(samples, prefix); got != float64(want) {
		return fmt.Errorf("%s… adds up to %v, want %d", prefix, got, want)
	}
	return nil
}

// counterRE picks the counter series of the node's request families.
var counterRE = regexp.MustCompile(`^tagserved_(requests_total|request_seconds_(bucket|count)|body_too_large_total)`)

// checkCountersMonotone requires no counter series present in both
// scrapes to have gone down from before to after.
func checkCountersMonotone(before, after map[string]float64) error {
	for series, v := range after {
		if was, ok := before[series]; ok && counterRE.MatchString(series) && v < was {
			return fmt.Errorf("counter went backwards: %s %v -> %v", series, was, v)
		}
	}
	return nil
}

// parseProm parses an exposition of metrics named prefix… or fails the
// test.
func parseProm(t *testing.T, prefix, text string) map[string]float64 {
	t.Helper()
	samples, err := promtest.Parse(prefix, text)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// requireLines demands, for each pattern, a line of text that matches it.
func requireLines(t *testing.T, text string, patterns ...string) {
	t.Helper()
	for _, re := range patterns {
		if !regexp.MustCompile("(?m)" + re).MatchString(text) {
			t.Errorf("/metrics/prom has no line matching %s", re)
		}
	}
}

// Each check passes its good input and fails one falsified the way a
// broken server would: a malformed line, a counter that went backwards, a
// reconciliation off by one.
func TestE2ECheckersCatchFalsified(t *testing.T) {
	good := "# TYPE tagserved_requests_total counter\n" +
		`tagserved_requests_total{route="/ingest",class="bulk",outcome="admitted"} 7` + "\n" +
		`tagserved_requests_total{route="/ingest",class="bulk",outcome="shed"} 3` + "\n" +
		"# TYPE tagserved_queue_depth gauge\ntagserved_queue_depth 0\n"
	before := parseProm(t, "tagserved_", good)
	later := parseProm(t, "tagserved_", strings.Replace(good, "} 7\n", "} 9\n", 1))
	for name, err := range map[string]error{
		"sum":       checkPromSum(before, `tagserved_requests_total{route="/ingest"`, 10),
		"monotone":  checkCountersMonotone(before, later),
		"unchanged": checkCountersMonotone(before, before),
	} {
		if err != nil {
			t.Errorf("%s: good input failed: %v", name, err)
		}
	}
	_, malformed := promtest.Parse("tagserved_", good+"tagserved_queue_depth\n")
	for name, err := range map[string]error{
		"malformed line":            malformed,
		"counter went backwards":    checkCountersMonotone(later, before),
		"reconciliation off by one": checkPromSum(before, `tagserved_requests_total{route="/ingest"`, 11),
	} {
		if err == nil {
			t.Errorf("%s: falsified input passed", name)
		}
	}
}
