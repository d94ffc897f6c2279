package vm

// SetLaneWidth sets the batch width of Runners created from now on,
// clamped to [1, 64], and returns the previous width.  Production runs at
// the default of 32; tests narrow it to exercise partial tail batches,
// divergence at odd widths, and width 1's sequential thread order.
func SetLaneWidth(w int) int {
	return int(laneWidth.Swap(int32(min(max(w, 1), 64))))
}
