package dataset

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV fuzzes ReadPointsCSV, the point reader behind cmd/alid and
// cmd/alidd, in both label modes: it never panics, every accepted value is
// finite, no accepted point is empty, and labels run parallel to the points
// exactly when the last column is a label.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,2,0\n3,4,-1\n")
	f.Add("0.5,-0.25,7\n")
	f.Add("")
	f.Add("nan,inf,0\n")
	f.Add("1,2\n1,2,3\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, labeled := range []bool{false, true} {
			pts, labels, err := ReadPointsCSV(strings.NewReader(input), "fuzz.csv", labeled)
			if err != nil {
				continue
			}
			if len(pts) == 0 {
				t.Fatalf("labeled=%v: accepted input with no points", labeled)
			}
			if labeled && len(labels) != len(pts) || !labeled && labels != nil {
				t.Fatalf("labeled=%v: %d labels for %d points", labeled, len(labels), len(pts))
			}
			for i, p := range pts {
				if len(p) == 0 {
					t.Fatalf("labeled=%v: point %d is empty", labeled, i)
				}
				for _, v := range p {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("labeled=%v: point %d holds %v", labeled, i, v)
					}
				}
			}
		}
	})
}

// FuzzReadSetsCSV fuzzes ReadSetsCSV, the set reader of the minhash
// backend, in both label modes: it never panics and accepts no empty input
// and no empty set.
func FuzzReadSetsCSV(f *testing.F) {
	f.Add("a,b,c\nd,e\n")
	f.Add("# comment\nx,y,1\n")
	f.Add("")
	f.Add(",\n")
	f.Add("a\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, labeled := range []bool{false, true} {
			sets, err := ReadSetsCSV(strings.NewReader(input), "fuzz.csv", labeled)
			if err != nil {
				continue
			}
			if len(sets) == 0 {
				t.Fatalf("labeled=%v: accepted input with no sets", labeled)
			}
			for i, s := range sets {
				if len(s) == 0 {
					t.Fatalf("labeled=%v: set %d is empty", labeled, i)
				}
			}
		}
	})
}
