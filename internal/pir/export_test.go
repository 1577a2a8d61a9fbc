package pir

// TestWatchParams exposes the package's test deployment to the external
// tests that drive a replica over the network.
var TestWatchParams = testWatchParams
