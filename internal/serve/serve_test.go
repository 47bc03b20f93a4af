package serve

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/emb"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

func testHotness(n int, alpha float64, seed uint64) workload.Hotness {
	r := rng.New(seed)
	perm := r.Perm(n)
	h := make(workload.Hotness, n)
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -alpha)
	}
	return h
}

func quickRefreshConfig() cache.RefreshConfig {
	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 500
	return cfg
}

func buildFunctional(t *testing.T, n int) (*core.System, *emb.Table) {
	t.Helper()
	table, err := emb.NewMaterialized("t", int64(n), 8, emb.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(n, 1.1, 3),
		EntryBytes: table.EntryBytes(),
		CacheRatio: 0.1,
		Source:     table,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, table
}

func TestServeFunctionalRows(t *testing.T) {
	sys, table := buildFunctional(t, 3000)
	reg := telemetry.NewRegistry(sys.P.N)
	srv, err := New(sys, Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c + 1))
			z, _ := workload.NewZipf(3000, 1.1)
			want := make([]byte, table.EntryBytes())
			for i := 0; i < perClient; i++ {
				keys := make([]int64, 30)
				for j := range keys {
					keys[j] = z.Sample(r)
				}
				res, err := srv.Lookup(c%sys.P.N, keys)
				if err != nil {
					errs <- err
					return
				}
				if res.SimSeconds <= 0 || res.BatchKeys <= 0 {
					t.Errorf("degenerate result %+v", res)
					return
				}
				for j, k := range keys {
					table.ReadRow(k, want)
					got := res.Rows[j*table.EntryBytes() : (j+1)*table.EntryBytes()]
					if !bytes.Equal(got, want) {
						t.Errorf("client %d key %d: wrong row", c, k)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Value("serve_requests_total"); got != clients*perClient {
		t.Fatalf("serve_requests_total %g, want %d", got, clients*perClient)
	}
	if uniq, req := reg.Value("serve_unique_keys_total"), reg.Value("serve_requested_keys_total"); uniq > req {
		t.Fatalf("dedup increased keys: %g > %g", uniq, req)
	}
}

func TestServeTimingOnlyMode(t *testing.T) {
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(1000, 1.1, 1),
		EntryBytes: 64,
		CacheRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Lookup(0, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatal("timing-only mode returned rows")
	}
	if res.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestServeEdgeCases(t *testing.T) {
	sys, _ := buildFunctional(t, 1000)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, gpu := range []int{-1, sys.P.N} {
		if res := <-srv.Handle(gpu, []int64{1}); !errors.Is(res.Err, ErrBadGPU) {
			t.Fatalf("gpu %d: err %v, want ErrBadGPU", gpu, res.Err)
		}
	}
	if res := <-srv.Handle(0, nil); res.Err != nil || res.Rows != nil {
		t.Fatalf("empty request: %+v", res)
	}
	if res := <-srv.Handle(0, []int64{-1}); !errors.Is(res.Err, ErrBadKey) {
		t.Fatalf("bad key: err %v, want ErrBadKey", res.Err)
	}
	srv.Close()
	srv.Close() // idempotent
	if res := <-srv.Handle(0, []int64{1}); res.Err == nil {
		t.Fatal("closed server accepted a request")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil system accepted")
	}
}

func TestServeDuringRefresh(t *testing.T) {
	sys, table := buildFunctional(t, 3000)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c + 11))
			z, _ := workload.NewZipf(3000, 1.1)
			want := make([]byte, table.EntryBytes())
			for {
				select {
				case <-stop:
					return
				default:
				}
				keys := []int64{z.Sample(r), z.Sample(r), z.Sample(r)}
				res, err := srv.Lookup(c%sys.P.N, keys)
				if err != nil {
					t.Errorf("lookup during refresh: %v", err)
					return
				}
				for j, k := range keys {
					table.ReadRow(k, want)
					if !bytes.Equal(res.Rows[j*table.EntryBytes():(j+1)*table.EntryBytes()], want) {
						t.Errorf("torn row for key %d during refresh", k)
						return
					}
				}
			}
		}(c)
	}

	h := testHotness(3000, 1.1, 3)
	for round := 0; round < 3; round++ {
		h2 := make(workload.Hotness, len(h))
		for i := range h2 {
			if round%2 == 0 {
				h2[i] = h[len(h)-1-i]
			} else {
				h2[i] = h[i]
			}
		}
		if _, err := sys.Refresh(h2, 0.001, quickRefreshConfig()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
