// Package lib holds one export of every kind the dead-code audit judges.
package lib

// Shape is an interface of the module: Square.Area is called through it.
type Shape interface{ Area() float64 }

// Square implements Shape and fmt.Stringer.
type Square struct{ Side float64 }

// Area is exempt: Square satisfies Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is exempt: fmt calls it through fmt.Stringer.
func (s Square) String() string { return "square" }

// UsedByMain is kept: a main package calls it.
func UsedByMain() int { return 1 }

// ReadByOtherTest is kept: a test of another package reads it.
func ReadByOtherTest() int { return 2 }

// OwnTestOnly is flagged: only this package's tests call it.
func OwnTestOnly() int { return 3 }

// Unreferenced is flagged: nothing calls it.
func Unreferenced() int { return 4 }

func helper() int { return 5 }
