package matrix

import "testing"

func mustInt(t *testing.T, c, b int) *Int {
	t.Helper()
	m, err := NewInt(c, b)
	if err != nil {
		t.Fatalf("NewInt(%d, %d): %v", c, b, err)
	}
	return m
}

func fill(t *testing.T, m *Int, fn func(c, b int) int64) {
	t.Helper()
	for c := 0; c < m.channels; c++ {
		for b := 0; b < m.blocks; b++ {
			if err := m.Set(c, b, fn(c, b)); err != nil {
				t.Fatalf("Set(%d, %d): %v", c, b, err)
			}
		}
	}
}

func TestNewIntValidation(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 5}, {5, -1}} {
		if _, err := NewInt(dims[0], dims[1]); err == nil {
			t.Errorf("dims %v accepted", dims)
		}
	}
}

func TestIntSetAtBounds(t *testing.T) {
	m := mustInt(t, 3, 4)
	if err := m.Set(2, 3, 99); err != nil {
		t.Fatalf("Set in bounds: %v", err)
	}
	v, err := m.At(2, 3)
	if err != nil || v != 99 {
		t.Fatalf("At(2,3) = %d, %v", v, err)
	}
	for _, pos := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 4}} {
		if _, err := m.At(pos[0], pos[1]); err == nil {
			t.Errorf("At%v accepted", pos)
		}
		if err := m.Set(pos[0], pos[1], 1); err == nil {
			t.Errorf("Set%v accepted", pos)
		}
	}
}

func TestIntEqualClone(t *testing.T) {
	a := mustInt(t, 2, 3)
	fill(t, a, func(c, bk int) int64 { return int64(c*10 + bk) })
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not Equal to its original")
	}
	if err := b.Set(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Error("Equal disagrees with the entries")
	}
	if v, _ := a.At(1, 2); v != 12 {
		t.Errorf("Set on the clone changed the original: At(1, 2) = %d, want 12", v)
	}
}

func TestIntShapeMismatch(t *testing.T) {
	a := mustInt(t, 2, 3)
	b := mustInt(t, 3, 2)
	if a.Equal(b) {
		t.Error("Equal across shapes")
	}
}

func TestMinEntryAllPositive(t *testing.T) {
	m := mustInt(t, 2, 2)
	fill(t, m, func(c, b int) int64 { return int64(c + b + 1) })
	if !m.AllPositive() {
		t.Error("all-positive matrix reported non-positive")
	}
	if err := m.Set(1, 0, -7); err != nil {
		t.Fatal(err)
	}
	if m.AllPositive() {
		t.Error("matrix with -7 reported all positive")
	}
	if err := m.Set(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.AllPositive() {
		t.Error("matrix with 0 reported all positive")
	}
}

func TestForEachOrderAndValues(t *testing.T) {
	m := mustInt(t, 2, 2)
	fill(t, m, func(c, b int) int64 { return int64(10*c + b) })
	var seen []int64
	err := m.ForEach(func(c, b int, v int64) error {
		seen = append(seen, v)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	want := []int64{0, 1, 10, 11}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", seen, want)
		}
	}
}
