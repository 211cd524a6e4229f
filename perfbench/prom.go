package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"alid/internal/obs"
)

// promSample is one exposition line: family name plus suffix, its labels
// and value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// counters reads a registry once, at run end, as exposition samples.
type counters []promSample

func readCounters(reg *obs.Registry) (counters, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.Bytes()), nil
}

func parseProm(text []byte) counters {
	var out counters
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name, labels = name[:b], strings.TrimSuffix(name[b+1:], "}")
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out
}

// sum adds every sample of name whose labels contain all of want (each a
// `k="v"` fragment), across shards.
func (c counters) sum(name string, want ...string) float64 {
	var t float64
	for _, s := range c {
		if s.name != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(s.labels, w) {
				ok = false
				break
			}
		}
		if ok {
			t += s.value
		}
	}
	return t
}

// meanOf is a histogram's sum over its count, in rendered units.
func (c counters) meanOf(name string, want ...string) float64 {
	n := c.sum(name+"_count", want...)
	if n == 0 {
		return 0
	}
	return c.sum(name+"_sum", want...) / n
}
