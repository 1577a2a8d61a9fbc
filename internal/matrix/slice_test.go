package matrix

import (
	"crypto/rand"
	"testing"
)

func TestPackedChannelSlice(t *testing.T) {
	sk, codec := packedFixture(t)
	m := testIntMatrix(t, 4, 7, 3)
	p, err := packEncryptInts(rand.Reader, sk.Public(), codec, m, 1, 1)
	if err != nil {
		t.Fatalf("PackEncryptInts: %v", err)
	}
	s, err := p.ChannelSlice(2, 4)
	if err != nil {
		t.Fatalf("ChannelSlice: %v", err)
	}
	if s.Channels() != 4 || s.Blocks() != 7 || s.groups != p.groups {
		t.Errorf("slice geometry changed: %dx%d/%d groups", s.Channels(), s.Blocks(), s.groups)
	}
	if want := 2 * p.groups; s.Populated() != want {
		t.Errorf("slice Populated = %d, want %d", s.Populated(), want)
	}
	for c := 0; c < 4; c++ {
		for g := 0; g < p.groups; g++ {
			ct, err := s.GroupAt(c, g)
			if err != nil {
				t.Fatalf("GroupAt(%d, %d): %v", c, g, err)
			}
			if inWindow := c >= 2; (ct != nil) != inWindow {
				t.Errorf("GroupAt(%d, %d) populated=%v, want %v", c, g, ct != nil, inWindow)
			}
		}
	}
	for _, w := range [][2]int{{-1, 2}, {2, 2}, {3, 1}, {0, 5}} {
		if _, err := p.ChannelSlice(w[0], w[1]); err == nil {
			t.Errorf("ChannelSlice(%d, %d) accepted an invalid window", w[0], w[1])
		}
	}
}

func TestPackEncryptIntsWindowMatchesFull(t *testing.T) {
	sk, codec := packedFixture(t)
	m := testIntMatrix(t, 4, 7, 5)
	w, err := PackEncryptIntsWindow(rand.Reader, sk.Public(), codec, m, 1, 1, 3, 1)
	if err != nil {
		t.Fatalf("PackEncryptIntsWindow: %v", err)
	}
	if want := 2 * w.groups; w.Populated() != want {
		t.Fatalf("window Populated = %d, want %d", w.Populated(), want)
	}
	got, err := DecryptPacked(sk, w)
	if err != nil {
		t.Fatalf("DecryptPacked: %v", err)
	}
	// Absent groups decode as zero; window rows must match the input.
	for c := 1; c < 3; c++ {
		for b := 0; b < 7; b++ {
			want, _ := m.At(c, b)
			v, _ := got.At(c, b)
			if v != want {
				t.Errorf("window cell (%d, %d) = %d, want %d", c, b, v, want)
			}
		}
	}
	if _, err := PackEncryptIntsWindow(rand.Reader, sk.Public(), codec, m, 1, 3, 3, 1); err == nil {
		t.Error("empty window accepted")
	}
}
