package ugache_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ugache"
	"ugache/internal/rng"
)

// TestFacadeEndToEnd exercises the public API the way the package doc
// advertises: profile hotness, build a system, look up real bytes, run a
// simulated extraction, and refresh.
func TestFacadeEndToEnd(t *testing.T) {
	p := ugache.ServerA()
	table, err := ugache.NewMaterializedTable("emb", 5000, 16, ugache.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	z, err := ugache.NewZipf(table.NumEntries, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	genBatch := func() []int64 {
		keys := make([]int64, 4000)
		for i := range keys {
			keys[i] = z.Sample(r)
		}
		return ugache.UniqueKeys(keys, nil)
	}
	var batches [][]int64
	for i := 0; i < 32; i++ {
		batches = append(batches, genBatch())
	}
	hot, err := ugache.ProfileBatches(table.NumEntries, batches)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ugache.New(ugache.Config{
		Platform:   p,
		Hotness:    hot,
		EntryBytes: table.EntryBytes(),
		CacheRatio: 0.1,
		Source:     table,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Functional lookup matches the host table.
	keys := []int64{0, 1, 4999, 1234}
	out := make([]byte, len(keys)*table.EntryBytes())
	if err := sys.Lookup(2, keys, out, nil); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, table.EntryBytes())
	for i, k := range keys {
		table.ReadRow(k, want)
		if !bytes.Equal(out[i*table.EntryBytes():(i+1)*table.EntryBytes()], want) {
			t.Fatalf("lookup mismatch for key %d", k)
		}
	}

	// Simulated extraction with the stock mechanisms.
	b := &ugache.Batch{Keys: make([][]int64, p.N)}
	for g := range b.Keys {
		b.Keys[g] = genBatch()
	}
	res, err := sys.ExtractBatch(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := sys.Extractor().Run(ugache.PeerRandom, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || peer.Time < res.Time {
		t.Fatalf("factored %g vs peer %g", res.Time, peer.Time)
	}

	// Refresh against drifted hotness.
	drift := make(ugache.Hotness, len(hot))
	for i := range drift {
		drift[i] = hot[len(hot)-1-i]
	}
	cfg := ugache.DefaultRefreshConfig()
	cfg.BatchEntries = 256
	rep, err := sys.Refresh(drift, res.Time, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration <= 0 {
		t.Fatal("refresh did nothing")
	}
}

// TestFacadeServe drives the serving engine through the public API:
// concurrent clients, coalesced batches, rows verified against the table.
func TestFacadeServe(t *testing.T) {
	p := ugache.ServerA()
	table, err := ugache.NewMaterializedTable("emb", 2000, 8, ugache.Float32, 11)
	if err != nil {
		t.Fatal(err)
	}
	hot := make(ugache.Hotness, 2000)
	for i := range hot {
		hot[i] = 1 / float64(i+1)
	}
	sys, err := ugache.New(ugache.Config{
		Platform:   p,
		Hotness:    hot,
		EntryBytes: table.EntryBytes(),
		CacheRatio: 0.1,
		Source:     table,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, reg := ugache.NewFlightRecorder(p.N, 0), ugache.NewTelemetryRegistry(p.N)
	srv, err := ugache.Serve(sys, ugache.ServeConfig{Flight: rec, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Lookup(1, []int64{3, 99, 1999})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds <= 0 || res.BatchKeys < 3 {
		t.Fatalf("degenerate result %+v", res)
	}
	want := make([]byte, table.EntryBytes())
	for i, k := range []int64{3, 99, 1999} {
		table.ReadRow(k, want)
		if !bytes.Equal(res.Rows[i*table.EntryBytes():(i+1)*table.EntryBytes()], want) {
			t.Fatalf("served row %d wrong", k)
		}
	}
	if reqs, batches := reg.Value("serve_requests_total"), reg.Value("serve_batches_total"); reqs != 1 || batches < 1 {
		t.Fatalf("serve_requests_total %g, serve_batches_total %g", reqs, batches)
	}
	// The handler's one flight field serves the recorder's batch line.
	h := httptest.NewServer(ugache.NewTelemetryHandler(ugache.TelemetryHandlerConfig{
		Flight: ugache.FlightBundleConfig{Recorder: rec}}))
	defer h.Close()
	resp, err := h.Client().Get(h.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), `{"kind":"batch"`) || !strings.Contains(string(body), `"requests":1,`) {
		t.Fatalf("/debug/flight: %v\n%s", err, body)
	}
}

func TestFacadePolicies(t *testing.T) {
	for _, name := range []string{"ugache", "replication", "partition", "clique-partition", "optimal-lp"} {
		if _, err := ugache.PolicyByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if ugache.PolicyUGache.Name() != "ugache" || ugache.PolicyOptimal.Name() != "optimal-lp" {
		t.Fatal("stock policies wrong")
	}
}

func TestFacadePlatforms(t *testing.T) {
	if ugache.ServerA().N != 4 || ugache.ServerB().N != 8 || ugache.ServerC().N != 8 {
		t.Fatal("stock platforms wrong")
	}
	p, err := ugache.NewPlatform(ugache.PlatformConfig{
		Name: "2xA100", Kind: 1, GPU: ugache.A100x80, N: 2,
		PCIeBW: 25e9, DRAMBW: 320e9, SwitchPortBW: 270e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 2 {
		t.Fatal("custom platform wrong")
	}
}

func TestFacadeMultiTable(t *testing.T) {
	t1, _ := ugache.NewTable("a", 100, 8, ugache.Float32, 1)
	t2, _ := ugache.NewTable("b", 50, 8, ugache.Float32, 2)
	mt, err := ugache.NewMultiTable([]*ugache.Table{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumEntries() != 150 {
		t.Fatal("multitable wrong")
	}
}

func TestFacadeHotnessSampler(t *testing.T) {
	s := ugache.NewHotnessSampler(10, 1)
	s.Observe([]int64{1, 2, 2})
	h, err := s.Hotness()
	if err != nil {
		t.Fatal(err)
	}
	if h[1] != 1 || h[2] != 1 {
		t.Fatalf("hotness %v", h[:3])
	}
}
