// Package other is imported by the command; its test reads lib.
package other

// Twice doubles x.
func Twice(x int) int { return 2 * x }
