package main

import (
	"bytes"
	"strings"

	"github.com/policyscope/policyscope/obs"
)

// Counters is a snapshot of the program's own obs.Default exposition,
// keyed by `name{labels}`.
type Counters map[string]float64

// ReadCounters renders obs.Default and parses it back with the
// program's own parser.
func ReadCounters() (Counters, error) {
	var buf bytes.Buffer
	obs.Default.WriteText(&buf)
	samples, err := obs.ParseText(&buf)
	if err != nil {
		return nil, err
	}
	c := make(Counters, len(samples))
	for _, s := range samples {
		c[s.Name+"{"+s.Labels+"}"] += s.Value
	}
	return c, nil
}

// Delta is after − before for every series matching name whose label
// text contains every one of labelSubs.
func (after Counters) Delta(before Counters, name string, labelSubs ...string) float64 {
	total := 0.0
	for key, v := range after {
		series, labels, ok := strings.Cut(key, "{")
		if !ok || series != name {
			continue
		}
		match := true
		for _, sub := range labelSubs {
			if !strings.Contains(labels, sub) {
				match = false
				break
			}
		}
		if match {
			total += v - before[key]
		}
	}
	return total
}
