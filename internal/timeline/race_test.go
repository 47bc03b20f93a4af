package timeline

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentRecordingAndExport registers sources and names tracks from
// many goroutines — what servers, routers and the flight recorder do while
// they are wired up beside a live /debug/timeline — while exports and Events
// snapshots run concurrently. Run with -race; the assertions only check that
// nothing registered is lost.
func TestConcurrentRecordingAndExport(t *testing.T) {
	const writers = 8
	const perWriter = 50
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ev := Event{Name: "e", Cat: "race", Ph: PhSpan,
					PID: ProcServe, TID: int32(w), Start: float64(i), Dur: 0.5}
				ev.AddArg("i", float64(i))
				r.AddSource(func(dst []Event) []Event { return append(dst, ev) })
				r.SetThreadName(ProcServe, int32(w), "worker")
				r.SetProcessName(ProcServe, "serve")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := r.WriteTrace(io.Discard); err != nil {
				t.Error(err)
			}
			_ = r.Events()
		}
	}()
	wg.Wait()
	if got := len(r.Events()); got != writers*perWriter {
		t.Fatalf("drew %d events, want %d", got, writers*perWriter)
	}
}
