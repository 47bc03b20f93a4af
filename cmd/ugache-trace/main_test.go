package main

import (
	"strings"
	"testing"
)

// TestCheckGen: -gen refuses a trace of no batches or of empty batches by
// flag name, and takes the smallest real one.
func TestCheckGen(t *testing.T) {
	for _, c := range []struct {
		batches, batch int
		flag           string
	}{
		{0, 2048, "-batches"},
		{-3, 2048, "-batches"},
		{96, 0, "-batch "},
		{96, -1, "-batch "},
	} {
		if err := checkGen(c.batches, c.batch); err == nil || !strings.HasPrefix(err.Error(), c.flag) {
			t.Errorf("checkGen(%d, %d) = %v, want an error naming %s", c.batches, c.batch, err, c.flag)
		}
	}
	if err := checkGen(1, 1); err != nil {
		t.Errorf("checkGen(1, 1) = %v", err)
	}
}
