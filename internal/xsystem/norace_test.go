//go:build !race

package xsystem

const raceEnabled = false
