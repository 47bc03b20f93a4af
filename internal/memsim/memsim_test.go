package memsim

import (
	"bytes"
	"errors"
	"testing"
)

func TestArenaAllocAccounting(t *testing.T) {
	a := NewArena("g0", 100)
	off1, err := a.Alloc(60)
	if err != nil || off1 != 0 {
		t.Fatalf("alloc1: off=%d err=%v", off1, err)
	}
	off2, err := a.Alloc(40)
	if err != nil || off2 != 60 {
		t.Fatalf("alloc2: off=%d err=%v", off2, err)
	}
	if a.used != 100 || a.Free() != 0 {
		t.Fatalf("used=%d free=%d", a.used, a.Free())
	}
	if _, err := a.Alloc(1); !errors.Is(err, errOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if _, err := a.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestBackedReadWrite(t *testing.T) {
	a, err := NewBackedArena("g0", 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.data == nil {
		t.Fatal("not backed")
	}
	off, _ := a.Alloc(16)
	want := []byte("hello, embedding")
	if err := a.Write(off, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := a.Read(off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestBoundsChecking(t *testing.T) {
	a, _ := NewBackedArena("g0", 64)
	a.Alloc(16)
	buf := make([]byte, 8)
	if err := a.Write(12, buf); err == nil {
		t.Fatal("write past allocation accepted")
	}
	if err := a.Read(-1, buf); err == nil {
		t.Fatal("negative read accepted")
	}
	u := NewArena("u", 64)
	u.Alloc(16)
	if err := u.Write(0, buf); err != nil {
		t.Fatalf("unbacked write should be a size-checked no-op: %v", err)
	}
	if err := u.Read(0, buf); err == nil {
		t.Fatal("unbacked read accepted")
	}
}

func TestBackedArenaTooLarge(t *testing.T) {
	if _, err := NewBackedArena("big", 1<<40); err == nil {
		t.Fatal("huge backed arena accepted")
	}
}
