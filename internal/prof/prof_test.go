package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesRequestedFiles: every requested profile is written, non-empty,
// when stop runs.
func TestStartWritesRequestedFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		CPUProfile:   filepath.Join(dir, "cpu.pprof"),
		MemProfile:   filepath.Join(dir, "mem.pprof"),
		BlockProfile: filepath.Join(dir, "block.pprof"),
		MutexProfile: filepath.Join(dir, "mutex.pprof"),
	}
	stop, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cfg.CPUProfile, cfg.MemProfile, cfg.BlockProfile, cfg.MutexProfile} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}

// TestZeroConfigWritesNothing: the zero Config starts and stops without
// writing a file.
func TestZeroConfigWritesNothing(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	stop, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("zero Config left %d entries (%v), want none", len(ents), err)
	}
}
