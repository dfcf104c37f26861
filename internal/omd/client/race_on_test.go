//go:build race

package client_test

// raceEnabled reports that this binary was built with the race detector,
// which deliberately randomizes sync.Pool reuse: allocation assertions are
// meaningless under it.
const raceEnabled = true
