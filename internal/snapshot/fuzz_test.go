package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// The decoders read files an operator can damage or an attacker can craft.
// A CRC catches accidental damage only, so every fuzz target appends the
// correct trailing CRC to its input: the mutator then reaches every check
// after the checksum too. Each target must return an error or a value,
// never panic or exhaust memory. Seeds are the golden files (trailing CRC
// stripped) plus small encodings made here.

// withCRC appends the CRC-32 of everything after the 8-byte magic.
func withCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < 8 {
		return out
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[8:]))
}

// seed adds an encoded stream to f without its trailing CRC.
func seed(f *testing.F, b []byte) {
	f.Add(b[:len(b)-4])
}

func FuzzRead(f *testing.F) {
	for _, tc := range goldenVersions {
		seed(f, golden(f, tc.file))
	}
	var buf bytes.Buffer
	if err := Write(&buf, sample(f)); err != nil {
		f.Fatal(err)
	}
	seed(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(withCRC(data)))
		if err != nil {
			return
		}
		if s.Mat == nil || s.Index == nil || len(s.Labels) != s.Mat.N {
			t.Fatalf("Read returned an incomplete snapshot without error")
		}
		_ = Write(&bytes.Buffer{}, s)
	})
}

func FuzzReadDelta(f *testing.F) {
	for _, name := range []string{"chain/alid.snap.delta0", "chain/alid.snap.delta1", "chain/alid.snap.delta2"} {
		seed(f, golden(f, name))
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, sampleDelta(f, sample(f))); err != nil {
		f.Fatal(err)
	}
	seed(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDelta(bytes.NewReader(withCRC(data)))
		if err != nil {
			return
		}
		s := sample(t)
		if err := ApplyDelta(s, d); err != nil {
			return
		}
		_ = Write(&bytes.Buffer{}, s)
	})
}

func FuzzReadManifest(f *testing.F) {
	seed(f, golden(f, "manifest/alid.snap"))
	var buf bytes.Buffer
	if err := WriteManifest(&buf, testManifest()); err != nil {
		f.Fatal(err)
	}
	seed(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(withCRC(data)))
		if err != nil {
			return
		}
		if len(m.Entries) != m.Shards {
			t.Fatalf("%d entries for %d shards", len(m.Entries), m.Shards)
		}
		for _, e := range m.Entries {
			if err := checkName("entry", e.Name); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func FuzzReadChain(f *testing.F) {
	seed(f, golden(f, "chain/alid.snap.chain"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadChain(bytes.NewReader(withCRC(data)))
		if err != nil {
			return
		}
		for _, e := range append([]ChainEntry{c.Base}, c.Deltas...) {
			if err := checkName("entry", e.Name); err != nil {
				t.Fatal(err)
			}
		}
	})
}
