// Package geo models the SDC service area: a rectangular grid of
// small square blocks (§III-D of the paper quantises the area into B
// blocks, normally 10m x 10m). Blocks are identified by a dense
// integer index so that matrices over (channel, block) can be stored
// contiguously.
package geo

import (
	"fmt"
	"math"
)

// BlockID indexes a block inside a Grid, in row-major order.
type BlockID int

// Point is a position in metres within the service area, with the
// origin at the grid's south-west corner.
type Point struct {
	X float64 // metres east
	Y float64 // metres north
}

// Distance returns the Euclidean distance in metres between p and q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Grid is the quantised service area.
type Grid struct {
	cols, rows int
	blockSize  float64 // side length of a block, metres
}

// NewGrid builds a cols x rows grid of square blocks with the given
// side length in metres.
func NewGrid(cols, rows int, blockSizeMeters float64) (*Grid, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("geo: grid dimensions must be positive, got %dx%d", cols, rows)
	}
	if blockSizeMeters <= 0 {
		return nil, fmt.Errorf("geo: block size must be positive, got %g", blockSizeMeters)
	}
	return &Grid{cols: cols, rows: rows, blockSize: blockSizeMeters}, nil
}

// Blocks returns B, the total number of blocks.
func (g *Grid) Blocks() int { return g.cols * g.rows }

// Cols returns the number of columns.
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of rows.
func (g *Grid) Rows() int { return g.rows }

// BlockSize returns the side length of a block in metres.
func (g *Grid) BlockSize() float64 { return g.blockSize }

// Valid reports whether b indexes a block of this grid.
func (g *Grid) Valid(b BlockID) bool {
	return b >= 0 && int(b) < g.Blocks()
}

// Block returns the block containing point p, or an error if p lies
// outside the service area.
func (g *Grid) Block(p Point) (BlockID, error) {
	col := int(math.Floor(p.X / g.blockSize))
	row := int(math.Floor(p.Y / g.blockSize))
	if col < 0 || col >= g.cols || row < 0 || row >= g.rows {
		return 0, fmt.Errorf("geo: point (%g, %g) outside %dx%d service area", p.X, p.Y, g.cols, g.rows)
	}
	return BlockID(row*g.cols + col), nil
}

// Center returns the centre point of block b.
func (g *Grid) Center(b BlockID) (Point, error) {
	if !g.Valid(b) {
		return Point{}, fmt.Errorf("geo: block %d outside grid of %d blocks", b, g.Blocks())
	}
	row := int(b) / g.cols
	col := int(b) % g.cols
	return Point{
		X: (float64(col) + 0.5) * g.blockSize,
		Y: (float64(row) + 0.5) * g.blockSize,
	}, nil
}

// Distance returns the centre-to-centre distance in metres between two
// blocks. Co-located blocks report half a block size rather than zero,
// so path-loss models never divide by zero.
func (g *Grid) Distance(a, b BlockID) (float64, error) {
	pa, err := g.Center(a)
	if err != nil {
		return 0, err
	}
	pb, err := g.Center(b)
	if err != nil {
		return 0, err
	}
	d := pa.Distance(pb)
	if d < g.blockSize/2 {
		d = g.blockSize / 2
	}
	return d, nil
}

// BlocksWithin returns all blocks whose centre lies within radius
// metres of the centre of block b, including b itself.
func (g *Grid) BlocksWithin(b BlockID, radius float64) ([]BlockID, error) {
	center, err := g.Center(b)
	if err != nil {
		return nil, err
	}
	if radius < 0 {
		return nil, fmt.Errorf("geo: negative radius %g", radius)
	}
	// Bounding box in block coordinates to avoid a full scan.
	span := int(math.Ceil(radius/g.blockSize)) + 1
	row := int(b) / g.cols
	col := int(b) % g.cols
	var out []BlockID
	for r := max(0, row-span); r <= min(g.rows-1, row+span); r++ {
		for c := max(0, col-span); c <= min(g.cols-1, col+span); c++ {
			cand := BlockID(r*g.cols + c)
			p, err := g.Center(cand)
			if err != nil {
				return nil, err
			}
			if center.Distance(p) <= radius {
				out = append(out, cand)
			}
		}
	}
	return out, nil
}

// Disclosure describes how much of a SU's location is revealed to the
// SDC (the privacy/time trade-off of §VI-A): the SU admits to being
// somewhere in a sub-rectangle of the grid and only ships matrix
// columns for those blocks.
type Disclosure struct {
	// Blocks are the block IDs inside the disclosed region, in
	// ascending order.
	Blocks []BlockID
}

// FullDisclosure returns the trivial disclosure covering the whole
// grid (maximum privacy for the SU: SDC learns nothing about where in
// the area it is).
func (g *Grid) FullDisclosure() Disclosure {
	ids := make([]BlockID, g.Blocks())
	for i := range ids {
		ids[i] = BlockID(i)
	}
	return Disclosure{Blocks: ids}
}

// RowBand returns a disclosure covering rows [fromRow, toRow), e.g.
// "the northern half of the map" from the paper's trade-off example.
func (g *Grid) RowBand(fromRow, toRow int) (Disclosure, error) {
	if fromRow < 0 || toRow > g.rows || fromRow >= toRow {
		return Disclosure{}, fmt.Errorf("geo: invalid row band [%d, %d) of %d rows", fromRow, toRow, g.rows)
	}
	ids := make([]BlockID, 0, (toRow-fromRow)*g.cols)
	for r := fromRow; r < toRow; r++ {
		for c := 0; c < g.cols; c++ {
			ids = append(ids, BlockID(r*g.cols+c))
		}
	}
	return Disclosure{Blocks: ids}, nil
}

// Contains reports whether block b is part of the disclosure.
func (d Disclosure) Contains(b BlockID) bool {
	// Blocks is sorted ascending; binary search.
	lo, hi := 0, len(d.Blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case d.Blocks[mid] == b:
			return true
		case d.Blocks[mid] < b:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}
