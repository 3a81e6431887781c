package train

import (
	"testing"
	_ "unsafe" // go:linkname
)

// tapePoison is the tensor package's use-after-release guard: while set,
// Tape.Release fills what it rewinds with NaN, so any tensor read after
// its step released the tape poisons the loss.
//
//go:linkname tapePoison mega/internal/tensor.tapePoison
var tapePoison bool

// TestTapeReleaseLeavesNothingLive reruns the bit-identity gate with the
// poison on: the pinned loss trajectories (threads 1 and 2) must not move,
// so nothing the trainer or optimiser reads after a Release lives on the
// tape.
func TestTapeReleaseLeavesNothingLive(t *testing.T) {
	tapePoison = true
	defer func() { tapePoison = false }()
	TestLossTrajectoryMatchesPinned(t)
}
