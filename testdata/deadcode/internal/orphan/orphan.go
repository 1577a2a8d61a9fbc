// Package orphan is imported by nothing: the audit names it and its export.
package orphan

// Lonely is flagged with its package.
func Lonely() {}
