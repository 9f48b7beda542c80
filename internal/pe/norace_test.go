//go:build !race

package pe

const raceDetector = false
