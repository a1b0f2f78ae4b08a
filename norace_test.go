//go:build !race

package demikernel

const raceEnabled = false
