package main

import "ctrlguard/internal/goofi"

// arm is one campaign configuration of a campaign workload. The name is
// what per-layer metrics call it (arm.<name>.ms).
type arm struct {
	Name     string
	Alg      int
	N        int
	Model    string
	Detector string
}

// Workload names are final: later changes refer to them.
const (
	wlBitflip  = "campaign-bitflip"
	wlExtended = "campaign-extended"
	wlService  = "service-mixed"
)

var workloads = []string{wlBitflip, wlExtended, wlService}

// bitflipArms run with the paper's permanent single-bit-flip model and
// the production engine defaults, so pruning, warm start and lockstep
// all apply.
var bitflipArms = []arm{
	{Name: "alg1-bitflip-n300", Alg: 1, N: 300},
	{Name: "alg1-bitflip-n2000", Alg: 1, N: 2000},
	{Name: "alg2-bitflip-n300", Alg: 2, N: 300},
	{Name: "alg2-bitflip-n2000", Alg: 2, N: 2000},
}

// extendedArms decline pruning and warm start (non-default fault
// models, armed detectors), so the interpreter, lockstep and detect do
// the work.
var extendedArms = []arm{
	{Name: "alg2-transient-n300", Alg: 2, N: 300, Model: "transient"},
	{Name: "alg1-burst-n300", Alg: 1, N: 300, Model: "burst"},
	{Name: "alg1-cfe-automaton-n100", Alg: 1, N: 100, Detector: "cfe+automaton"},
}

// armsOf returns a campaign workload's arms; small shrinks every
// campaign tenfold for smoke tests.
func armsOf(workload string, small bool) []arm {
	var arms []arm
	switch workload {
	case wlBitflip:
		arms = bitflipArms
	case wlExtended:
		arms = extendedArms
	default:
		return nil
	}
	if !small {
		return arms
	}
	out := make([]arm, len(arms))
	for i, a := range arms {
		a.N /= 10
		out[i] = a
	}
	return out
}

// spec turns an arm into the campaign spec the engine receives.
func (a arm) spec(seed uint64, workers int) goofi.CampaignSpec {
	return goofi.CampaignSpec{
		Alg:         a.Alg,
		Experiments: a.N,
		Seed:        seed,
		Workers:     workers,
		Model:       a.Model,
		Detector:    a.Detector,
	}
}

// mix is the splitmix64 finaliser: a bijective 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive hashes the run seed with a path of indices into an
// independent value, so every input is a pure function of the run
// seed and its position, never of timing.
func derive(seed uint64, path ...uint64) uint64 {
	h := mix(seed)
	for _, p := range path {
		h = mix(h ^ mix(p+1))
	}
	return h
}

// Stream tags keep the derived values of different uses apart.
const (
	tagCampaign = iota + 1
	tagShard
	tagClient
	tagProbe
)

// campaignSeed is the engine seed of an arm's campaign in one cycle.
func campaignSeed(seed uint64, cycle, armIdx int) uint64 {
	return derive(seed, tagCampaign, uint64(cycle), uint64(armIdx))
}

// refereeShard picks the contiguous experiment range of a campaign the
// referee re-runs.
func refereeShard(seed uint64, cycle, armIdx, n, size int) goofi.Shard {
	if size > n {
		size = n
	}
	start := int(derive(seed, tagShard, uint64(cycle), uint64(armIdx)) % uint64(n-size+1))
	return goofi.Shard{Start: start, End: start + size}
}

// repeatEvery makes every repeatEvery-th submission of a service client
// a repeat of a spec it already finished: one in three jobs is a cache
// hit, which keeps the all-jobs median well inside the cache-miss
// latencies instead of on the boundary between the two modes.
const repeatEvery = 3

// clientPlan generates one service client's submissions from the run
// seed. Fresh specs draw a new engine seed (so they miss the cache);
// repeats re-submit one of the client's own earlier fresh specs, which
// the closed loop guarantees has finished.
type clientPlan struct {
	seed   uint64
	client int
	n      int
	fresh  []goofi.CampaignSpec
}

func newClientPlan(seed uint64, client, n int) *clientPlan {
	return &clientPlan{seed: seed, client: client, n: n}
}

// next returns submission j; it must be called for j = 0, 1, 2, ...
func (p *clientPlan) next(j int) goofi.CampaignSpec {
	h := derive(p.seed, tagClient, uint64(p.client), uint64(j))
	if j%repeatEvery == repeatEvery-1 && len(p.fresh) > 0 {
		return p.fresh[h%uint64(len(p.fresh))]
	}
	spec := goofi.CampaignSpec{Alg: 1 + int(h%2), Experiments: p.n, Seed: mix(h)}
	p.fresh = append(p.fresh, spec)
	return spec
}
