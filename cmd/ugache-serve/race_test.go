//go:build race

package main

// Under the race detector a row copy costs some twenty times what it does
// without, and building the smokes' 160,000-entry tables is mostly row
// copies: a quarter of the scale keeps `go test -race` on this package under
// its 20 s. The masked reports are the same at any scale.
const smokeScale = "0.005"

// An open-loop rate that saturates the engine, which the detector slows
// about tenfold.
const saturateQPS = "8000"
