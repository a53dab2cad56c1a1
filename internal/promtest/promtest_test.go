package promtest

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	const good = "# HELP x_total Things.\n# TYPE x_total counter\n" +
		"x_total{route=\"/a\",class=\"bulk\"} 3\nx_total{route=\"/b\",class=\"bulk\"} 0\n" +
		"x_seconds_bucket{le=\"+Inf\"} 4\nx_seconds_sum 1.5e-05\nx_depth 0\n"
	samples, err := Parse("x_", good)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 || samples[`x_total{route="/a",class="bulk"}`] != 3 || samples[`x_seconds_sum`] != 1.5e-05 {
		t.Fatalf("samples = %v", samples)
	}
	for name, tc := range map[string]struct{ text, want string }{
		// One route label registered twice: every series of it repeats.
		"duplicate series": {good + "x_total{route=\"/a\",class=\"bulk\"} 1\n", "appears twice"},
		"duplicate bare":   {good + "x_depth 2\n", "appears twice"},
		"foreign metric":   {good + "y_total 1\n", "malformed"},
		"no value":         {good + "x_total\n", "malformed"},
		"bad labels":       {good + "x_total{route=/a} 1\n", "malformed"},
		"bad number":       {good + "x_total 1.2.3\n", "unparseable"},
	} {
		if _, err := Parse("x_", tc.text); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, tc.want)
		}
	}
}
