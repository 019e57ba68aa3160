package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one scraped /metrics exposition: full series name (with
// labels, exactly as exposed) → value.
type promSample map[string]float64

// parseProm parses Prometheus text exposition lines "name{labels} value".
// Comment lines are skipped. The coordinator's merged exposition lists
// each shard's series with an extra shard="N" label, which keeps them
// distinct keys here.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// seriesFamily strips the label set from a series name.
func seriesFamily(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// sum adds every series of a family whose label set contains all the
// given `key="value"` pairs (none = every series of the family).
func (p promSample) sum(family string, labels ...string) float64 {
	t := 0.0
	for series, v := range p {
		if seriesFamily(series) != family || !hasLabels(series, labels) {
			continue
		}
		t += v
	}
	return t
}

func hasLabels(series string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(series, l) {
			return false
		}
	}
	return true
}

// delta returns after − before for every series in after (a series
// absent before counts from 0).
func promDelta(before, after promSample) promSample {
	out := promSample{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
