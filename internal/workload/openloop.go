package workload

import (
	"fmt"
	"time"

	"ugache/internal/rng"
)

// OpenLoopConfig parameterizes an open-loop request stream: arrivals are
// scheduled by the offered rate alone, never by service completions, so
// unlike a closed loop the generator keeps offering load to a saturated
// server — the regime where shed counts and the latency knee are measured.
type OpenLoopConfig struct {
	// QPS is the offered request rate of the Poisson arrivals (required,
	// > 0).
	QPS float64

	// Users is the simulated user population (default 1M). Users carry no
	// per-user state — a user's working set is derived by hashing, so
	// millions of users cost nothing.
	Users int64

	// KeysPerRequest is how many keys one request carries (default 26, one
	// key per CR table).
	KeysPerRequest int
	// NumKeys is the key space size (required, > 0). Keys are drawn in
	// [0, NumKeys).
	NumKeys int64
}

// The shape of the simulated population. Nothing sets these per stream: one
// population is what the serving experiments are stated against.
const (
	// userAlpha is the Zipf skew of user activity: a few users issue most
	// requests, the long tail is nearly idle.
	userAlpha = 1.05
	// workingSet is the number of distinct keys in one user's affinity set.
	workingSet = 64
	// affinity is the probability a requested key comes from the user's own
	// working set rather than the global popularity distribution. Affinity
	// draws are deterministic per (user, slot), so a user's requests re-touch
	// the same keys — the temporal locality real serving traffic has and
	// uniform resampling lacks.
	affinity = 0.8
	// keyAlpha is the Zipf skew of key popularity (the skew of the paper's
	// SYN-A), applied both to global draws and, through the hash, to affinity
	// sets — hot keys appear in many users' working sets.
	keyAlpha = 1.2
)

func (c OpenLoopConfig) normalize() (OpenLoopConfig, error) {
	if c.QPS <= 0 {
		return c, fmt.Errorf("workload: open loop needs QPS > 0, got %g", c.QPS)
	}
	if c.NumKeys <= 0 {
		return c, fmt.Errorf("workload: open loop needs NumKeys > 0, got %d", c.NumKeys)
	}
	if c.Users <= 0 {
		c.Users = 1_000_000
	}
	if c.KeysPerRequest <= 0 {
		c.KeysPerRequest = 26
	}
	return c, nil
}

// OpenLoopRequest is one generated arrival. Keys is owned by the generator
// and overwritten by the next Next call; copy it to retain.
type OpenLoopRequest struct {
	// At is the intended arrival time, as an offset from the stream's start.
	// Open-loop latency is measured from At, not from when the load driver
	// got around to sending — that is what avoids coordinated omission.
	At time.Duration
	// User is the simulated user issuing the request.
	User int64
	// Keys are the requested embedding keys.
	Keys []int64
}

// OpenLoop is a deterministic open-loop request stream. Not safe for
// concurrent use; shard one generator per driver goroutine with distinct
// seeds instead.
type OpenLoop struct {
	cfg   OpenLoopConfig
	r     *rng.Rand
	users *Zipf
	keys  *Zipf

	now float64 // seconds since stream start

	keyBuf []int64
}

// NewOpenLoop builds a generator. Streams with the same config and seed are
// identical run to run.
func NewOpenLoop(cfg OpenLoopConfig, seed uint64) (*OpenLoop, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	users, err := NewZipf(cfg.Users, userAlpha)
	if err != nil {
		return nil, err
	}
	keys, err := NewZipf(cfg.NumKeys, keyAlpha)
	if err != nil {
		return nil, err
	}
	return &OpenLoop{
		cfg:    cfg,
		r:      rng.New(seed).Split("open-loop"),
		users:  users,
		keys:   keys,
		keyBuf: make([]int64, cfg.KeysPerRequest),
	}, nil
}

// Users returns the simulated user population in use (1M when the config
// left it 0).
func (o *OpenLoop) Users() int64 { return o.cfg.Users }

// splitmix64 is the stateless mixer behind per-user key affinity: hashing
// (user, slot) to a uniform variate gives every user a stable working set
// with zero per-user storage.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1) with 53-bit precision.
func unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Next advances the stream by one exponential inter-arrival time at the
// offered rate and fills req with the next arrival. The Keys slice aliases
// the generator's buffer.
func (o *OpenLoop) Next(req *OpenLoopRequest) {
	o.now += o.r.Exp() / o.cfg.QPS
	user := o.users.Sample(o.r)
	keys := o.keyBuf[:o.cfg.KeysPerRequest]
	for i := range keys {
		if o.r.Float64() < affinity {
			// Affinity draw: a stable slot of this user's working set,
			// mapped through the key-popularity CDF so hot keys land in
			// many working sets.
			slot := o.r.Intn(workingSet)
			h := splitmix64(uint64(user)*0x100000001b3 + uint64(slot))
			keys[i] = o.keys.Rank(unit(h))
		} else {
			keys[i] = o.keys.Sample(o.r)
		}
	}
	req.At = time.Duration(o.now * float64(time.Second))
	req.User = user
	req.Keys = keys
}
