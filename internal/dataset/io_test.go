package dataset

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func roundTripDataset(t *testing.T) *Dataset {
	t.Helper()
	cfg := DefaultMixtureConfig(200, RegimeCap)
	cfg.Dim = 6
	cfg.Clusters = 4
	cfg.P = 80
	d, err := Mixture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The CSV layout cmd/datagen writes (%g with 8 significant digits, label
// last) reads back through ReadPointsCSV with labels parallel to points.
func TestCSVRoundTrip(t *testing.T) {
	d := roundTripDataset(t)
	var buf bytes.Buffer
	for i, p := range d.Points {
		for _, v := range p {
			buf.WriteString(strconv.FormatFloat(v, 'g', 8, 64) + ",")
		}
		buf.WriteString(strconv.Itoa(d.Labels[i]) + "\n")
	}
	pts, labels, err := ReadPointsCSV(&buf, "mixture.csv", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != d.N() || len(labels) != d.N() {
		t.Fatalf("read %d points, %d labels, want %d", len(pts), len(labels), d.N())
	}
	for i := range d.Points {
		if labels[i] != d.Labels[i] {
			t.Fatalf("label %d mismatch", i)
		}
		for j := range d.Points[i] {
			if math.Abs(pts[i][j]-d.Points[i][j]) > 1e-4*math.Abs(d.Points[i][j])+1e-9 {
				t.Fatalf("point %d,%d: %v vs %v", i, j, pts[i][j], d.Points[i][j])
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",             // empty
		"1.0\n",        // label only
		"1.0,2.0,xx\n", // bad label
		"zz,2.0,1\n",   // bad value
		"nan,2.0,1\n",  // non-finite value
	}
	for i, c := range cases {
		if _, _, err := ReadPointsCSV(strings.NewReader(c), "in.csv", true); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}
