package lib

// Helper is a shim declared in a test file, so it is never flagged.
func Helper() int { return helper() }
