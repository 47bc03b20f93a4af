//go:build !race

package main

// The scale `make trace-smoke` and `flight-smoke` ran at.
const smokeScale = "0.02"

// An open-loop rate that saturates the engine.
const saturateQPS = "100000"
