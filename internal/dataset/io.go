package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadPointsCSV parses the interchange CSV that cmd/datagen writes as raw
// points: one point per line, comma-separated features, blank lines skipped. With labeled the last
// column is an integer ground-truth label (returned separately, never
// clustered); without it, labels is nil. Non-finite feature values are
// rejected. This is the single parser behind cmd/alid and cmd/alidd.
func ReadPointsCSV(r io.Reader, name string, labeled bool) ([][]float64, []int, error) {
	var pts [][]float64
	var labels []int
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		nf := len(fields)
		if labeled {
			nf--
			if nf == 0 {
				return nil, nil, fmt.Errorf("%s:%d: label-only line", name, lineNo)
			}
			lbl, err := strconv.Atoi(strings.TrimSpace(fields[nf]))
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d: bad label %q", name, lineNo, fields[nf])
			}
			labels = append(labels, lbl)
		}
		p := make([]float64, nf)
		for i := 0; i < nf; i++ {
			v, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d: bad value %q", name, lineNo, fields[i])
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("%s:%d: non-finite value %q", name, lineNo, fields[i])
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(pts) == 0 {
		return nil, nil, fmt.Errorf("%s: no points", name)
	}
	return pts, labels, nil
}

// ReadSetsCSV parses the set-input CSV of the minhash backend: one element
// set per line, comma-separated strings, blank lines and #-comments skipped.
// With labeled the last column is dropped (mirroring ReadPointsCSV so the
// same dataset layout works for both backends). This is the single parser
// behind cmd/alid -backend minhash and cmd/alidd.
func ReadSetsCSV(r io.Reader, name string, labeled bool) ([][]string, error) {
	var sets [][]string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		elems := strings.Split(line, ",")
		for i := range elems {
			elems[i] = strings.TrimSpace(elems[i])
		}
		if labeled {
			elems = elems[:len(elems)-1]
		}
		if len(elems) == 0 || (len(elems) == 1 && elems[0] == "") {
			return nil, fmt.Errorf("%s:%d: empty element set", name, lineNo)
		}
		sets = append(sets, elems)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", name)
	}
	return sets, nil
}
