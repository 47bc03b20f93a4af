package platform

import (
	"fmt"

	"ugache/internal/sim"
)

// ProfilePoint is one sample of the Fig. 6 microbenchmark: the bandwidth a
// destination GPU achieves when a given number of cores extract from one
// source.
type ProfilePoint struct {
	Cores     int
	Bandwidth float64 // bytes/s
}

// ProfileBandwidth reproduces the paper's Fig. 6 microbenchmark for a single
// destination: it sweeps dedicated core counts against one source and
// reports the achieved bandwidth at each point.
func (p *Platform) ProfileBandwidth(dst int, src SourceID, coreCounts []int) ([]ProfilePoint, error) {
	path, ok := p.Path(dst, src)
	if !ok {
		return nil, fmt.Errorf("platform: gpu%d cannot reach source %d", dst, src)
	}
	rcore := p.RCore(dst, src)
	const bytes = 1 << 30
	out := make([]ProfilePoint, 0, len(coreCounts))
	for _, c := range coreCounts {
		if c <= 0 || c > p.GPU.SMs {
			return nil, fmt.Errorf("platform: core count %d out of range [1, %d]", c, p.GPU.SMs)
		}
		res, err := p.Topo.Run([]sim.Demand{{
			Label: "profile", Bytes: bytes, Cores: float64(c), RCore: rcore,
			Path: path, PadTo: -1,
		}}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, ProfilePoint{Cores: c, Bandwidth: bytes / res.Finish[0]})
	}
	return out, nil
}

// ProfileMultiReader reproduces the right half of Fig. 6(b): several reader
// GPUs extract from the same source concurrently with the given per-reader
// core count, and the per-reader bandwidth is reported. On switch-based
// platforms the shared outbound port makes the per-reader share collapse as
// readers are added.
func (p *Platform) ProfileMultiReader(src int, readers []int, coresEach int) (map[int]float64, error) {
	if src < 0 || src >= p.N {
		return nil, fmt.Errorf("platform: source gpu %d out of range", src)
	}
	var demands []sim.Demand
	const bytes = 1 << 30
	for _, r := range readers {
		if r == src {
			return nil, fmt.Errorf("platform: reader %d equals source", r)
		}
		path, ok := p.Path(r, SourceID(src))
		if !ok {
			return nil, fmt.Errorf("platform: gpu%d cannot reach gpu%d", r, src)
		}
		demands = append(demands, sim.Demand{
			Label: fmt.Sprintf("g%d<-g%d", r, src),
			Bytes: bytes, Cores: float64(coresEach),
			RCore: p.RCore(r, SourceID(src)), Path: path, PadTo: -1,
		})
	}
	res, err := p.Topo.Run(demands, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(readers))
	for i, r := range readers {
		out[r] = bytes / res.Finish[i]
	}
	return out, nil
}
