//go:build race

package xsystem

const raceEnabled = true
