package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// expo is one scrape of a Prometheus text exposition: every series,
// keyed by its name and label set exactly as printed ("name{a=\"b\"}"),
// mapped to its value.
type expo map[string]float64

// parseExpo reads a text exposition. Comment and blank lines are skipped;
// a trailing timestamp after the value is ignored.
func parseExpo(r io.Reader) (expo, error) {
	e := expo{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.IndexByte(line, ' ')
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			cut = i + 1
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		e[line[:cut]] = v
	}
	return e, sc.Err()
}

// delta returns after minus before for every series in after; a series
// absent from before counts from zero.
func (after expo) delta(before expo) expo {
	d := expo{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the named metric, whatever its labels.
func (e expo) sum(name string) float64 {
	t := 0.0
	for k, v := range e {
		base, _, _ := strings.Cut(k, "{")
		if base == name {
			t += v
		}
	}
	return t
}
