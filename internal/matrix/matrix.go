// Package matrix provides the dense (channel x block) matrices that
// WATCH and PISA compute over (§III-D of the paper): a plaintext
// int64 matrix for the WATCH baseline and a slot-packed encrypted
// matrix over Paillier ciphertexts for PISA.
//
// Rows index channels (C of them), columns index blocks (B of them),
// matching the paper's {m(c, b)}_{CxB} notation.
package matrix

import "fmt"

// Int is a dense C x B matrix of signed 64-bit integers. The zero
// value is unusable; construct with NewInt.
type Int struct {
	channels, blocks int
	data             []int64 // row-major: data[c*blocks + b]
}

// NewInt allocates a zeroed channels x blocks matrix.
func NewInt(channels, blocks int) (*Int, error) {
	if channels <= 0 || blocks <= 0 {
		return nil, fmt.Errorf("matrix: dimensions must be positive, got %dx%d", channels, blocks)
	}
	return &Int{
		channels: channels,
		blocks:   blocks,
		data:     make([]int64, channels*blocks),
	}, nil
}

func (m *Int) idx(c, b int) (int, error) {
	if c < 0 || c >= m.channels || b < 0 || b >= m.blocks {
		return 0, fmt.Errorf("matrix: index (%d, %d) outside %dx%d", c, b, m.channels, m.blocks)
	}
	return c*m.blocks + b, nil
}

// At returns the element at (channel, block).
func (m *Int) At(c, b int) (int64, error) {
	i, err := m.idx(c, b)
	if err != nil {
		return 0, err
	}
	return m.data[i], nil
}

// Set writes the element at (channel, block).
func (m *Int) Set(c, b int, v int64) error {
	i, err := m.idx(c, b)
	if err != nil {
		return err
	}
	m.data[i] = v
	return nil
}

// Clone returns a deep copy.
func (m *Int) Clone() *Int {
	out := &Int{channels: m.channels, blocks: m.blocks, data: make([]int64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// sameShape verifies dimensional compatibility.
func (m *Int) sameShape(other *Int) error {
	if m.channels != other.channels || m.blocks != other.blocks {
		return fmt.Errorf("matrix: shape mismatch %dx%d vs %dx%d",
			m.channels, m.blocks, other.channels, other.blocks)
	}
	return nil
}

// Equal reports element-wise equality.
func (m *Int) Equal(other *Int) bool {
	if m.sameShape(other) != nil {
		return false
	}
	for i := range m.data {
		if m.data[i] != other.data[i] {
			return false
		}
	}
	return true
}

// AllPositive reports whether every element is > 0 — the paper's
// grant condition on the interference indicator matrix I_j.
func (m *Int) AllPositive() bool {
	for _, x := range m.data {
		if x <= 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in row-major order, stopping on
// the first error.
func (m *Int) ForEach(fn func(c, b int, v int64) error) error {
	for i, v := range m.data {
		if err := fn(i/m.blocks, i%m.blocks, v); err != nil {
			return err
		}
	}
	return nil
}
