package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, cols, rows int, size float64) *Grid {
	t.Helper()
	g, err := NewGrid(cols, rows, size)
	if err != nil {
		t.Fatalf("NewGrid(%d, %d, %g): %v", cols, rows, size, err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	tests := []struct {
		name       string
		cols, rows int
		size       float64
	}{
		{"zero cols", 0, 5, 10},
		{"zero rows", 5, 0, 10},
		{"negative cols", -1, 5, 10},
		{"zero size", 5, 5, 0},
		{"negative size", 5, 5, -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGrid(tt.cols, tt.rows, tt.size); err == nil {
				t.Error("invalid grid accepted")
			}
		})
	}
}

func TestBlockAndCenterRoundTrip(t *testing.T) {
	g := mustGrid(t, 30, 20, 10)
	if g.Blocks() != 600 {
		t.Fatalf("Blocks = %d, want 600 (paper's B)", g.Blocks())
	}
	prop := func(rawX, rawY uint16) bool {
		p := Point{
			X: math.Mod(float64(rawX), 300),
			Y: math.Mod(float64(rawY), 200),
		}
		b, err := g.Block(p)
		if err != nil {
			t.Fatalf("Block(%v): %v", p, err)
		}
		c, err := g.Center(b)
		if err != nil {
			t.Fatalf("Center(%d): %v", b, err)
		}
		// Centre of the containing block is within half a block
		// diagonal of the point.
		return p.Distance(c) <= 10*math.Sqrt2/2+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockOutsideArea(t *testing.T) {
	g := mustGrid(t, 10, 10, 10)
	for _, p := range []Point{{X: -1, Y: 5}, {X: 5, Y: -1}, {X: 100, Y: 5}, {X: 5, Y: 100}} {
		if _, err := g.Block(p); err == nil {
			t.Errorf("point %v accepted outside the area", p)
		}
	}
}

func TestCenterInvalidBlock(t *testing.T) {
	g := mustGrid(t, 10, 10, 10)
	for _, b := range []BlockID{-1, 100, 1000} {
		if _, err := g.Center(b); err == nil {
			t.Errorf("block %d accepted", b)
		}
	}
}

func TestDistanceSymmetricPositive(t *testing.T) {
	g := mustGrid(t, 20, 20, 10)
	prop := func(a, b uint16) bool {
		ba := BlockID(int(a) % g.Blocks())
		bb := BlockID(int(b) % g.Blocks())
		dab, err := g.Distance(ba, bb)
		if err != nil {
			t.Fatalf("Distance: %v", err)
		}
		dba, err := g.Distance(bb, ba)
		if err != nil {
			t.Fatalf("Distance: %v", err)
		}
		return dab == dba && dab >= g.BlockSize()/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistanceKnownValues(t *testing.T) {
	g := mustGrid(t, 10, 10, 10)
	// Blocks 0 and 1 are adjacent in the same row: 10 m apart.
	d, err := g.Distance(0, 1)
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if d != 10 {
		t.Errorf("adjacent distance = %g, want 10", d)
	}
	// Same block: clamped to half block size.
	d, err = g.Distance(7, 7)
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if d != 5 {
		t.Errorf("self distance = %g, want 5", d)
	}
	// Diagonal neighbours: 10*sqrt(2).
	d, err = g.Distance(0, 11)
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if math.Abs(d-10*math.Sqrt2) > 1e-9 {
		t.Errorf("diagonal distance = %g, want %g", d, 10*math.Sqrt2)
	}
}

func TestBlocksWithin(t *testing.T) {
	g := mustGrid(t, 10, 10, 10)
	center := BlockID(55) // row 5, col 5
	got, err := g.BlocksWithin(center, 10)
	if err != nil {
		t.Fatalf("BlocksWithin: %v", err)
	}
	// Radius 10 m from a block centre covers itself plus the four
	// orthogonal neighbours (diagonals are 14.1 m away).
	want := map[BlockID]bool{45: true, 54: true, 55: true, 56: true, 65: true}
	if len(got) != len(want) {
		t.Fatalf("got %d blocks %v, want %d", len(got), got, len(want))
	}
	for _, b := range got {
		if !want[b] {
			t.Errorf("unexpected block %d", b)
		}
	}
}

func TestBlocksWithinWholeGrid(t *testing.T) {
	g := mustGrid(t, 6, 6, 10)
	got, err := g.BlocksWithin(0, 1e9)
	if err != nil {
		t.Fatalf("BlocksWithin: %v", err)
	}
	if len(got) != g.Blocks() {
		t.Fatalf("huge radius returned %d blocks, want %d", len(got), g.Blocks())
	}
}

func TestBlocksWithinErrors(t *testing.T) {
	g := mustGrid(t, 6, 6, 10)
	if _, err := g.BlocksWithin(999, 10); err == nil {
		t.Error("invalid block accepted")
	}
	if _, err := g.BlocksWithin(0, -5); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestFullDisclosure(t *testing.T) {
	g := mustGrid(t, 4, 3, 10)
	d := g.FullDisclosure()
	if len(d.Blocks) != 12 {
		t.Fatalf("full disclosure has %d blocks, want 12", len(d.Blocks))
	}
	for i, b := range d.Blocks {
		if int(b) != i {
			t.Fatalf("disclosure not dense at %d: %d", i, b)
		}
	}
}

func TestRowBand(t *testing.T) {
	g := mustGrid(t, 4, 6, 10)
	d, err := g.RowBand(3, 6) // northern half
	if err != nil {
		t.Fatalf("RowBand: %v", err)
	}
	if len(d.Blocks) != 12 {
		t.Fatalf("band has %d blocks, want 12", len(d.Blocks))
	}
	if !d.Contains(12) || d.Contains(11) {
		t.Error("band boundary wrong")
	}
	for _, bad := range [][2]int{{-1, 3}, {0, 7}, {4, 4}, {5, 2}} {
		if _, err := g.RowBand(bad[0], bad[1]); err == nil {
			t.Errorf("invalid band %v accepted", bad)
		}
	}
}

func TestDisclosureContains(t *testing.T) {
	d := Disclosure{Blocks: []BlockID{2, 5, 9, 14}}
	for _, b := range []BlockID{2, 5, 9, 14} {
		if !d.Contains(b) {
			t.Errorf("Contains(%d) = false", b)
		}
	}
	for _, b := range []BlockID{0, 3, 10, 99} {
		if d.Contains(b) {
			t.Errorf("Contains(%d) = true", b)
		}
	}
}

func TestBlocksWithinSymmetric(t *testing.T) {
	// Property: membership is symmetric — if b is within r of a,
	// then a is within r of b.
	g := mustGrid(t, 9, 7, 10)
	prop := func(rawA, rawB uint16, rawR uint8) bool {
		a := BlockID(int(rawA) % g.Blocks())
		b := BlockID(int(rawB) % g.Blocks())
		r := float64(rawR)
		inA, err := g.BlocksWithin(a, r)
		if err != nil {
			t.Fatal(err)
		}
		inB, err := g.BlocksWithin(b, r)
		if err != nil {
			t.Fatal(err)
		}
		contains := func(list []BlockID, x BlockID) bool {
			for _, v := range list {
				if v == x {
					return true
				}
			}
			return false
		}
		return contains(inA, b) == contains(inB, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
