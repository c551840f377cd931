package main

import (
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

// topoKind is the shape of the stack a workload runs against.
type topoKind int

const (
	// topoSingle: one daemon behind its own listener.
	topoSingle topoKind = iota
	// topoRouted: router.New over two single-node shard groups.
	topoRouted
	// topoQuorum: primary + 2 followers, SyncMode quorum, SyncAcks 1.
	topoQuorum
)

func (k topoKind) String() string {
	return [...]string{"single", "routed", "quorum"}[k]
}

// opKind is one of the four client operations every workload mixes.
type opKind uint8

const (
	opSubmit opKind = iota
	opBatch
	opCancel
	opLookup
	numOps
)

func (k opKind) String() string {
	return [...]string{"submit", "batch", "cancel", "lookup"}[k]
}

// workloadSpec is one named workload: topology, platform, traffic shape
// and the two pinned constants (paper load, open-loop rate) that make its
// numbers comparable across commits.
type workloadSpec struct {
	name string
	why  string
	topo topoKind
	// wal gives every daemon a write-ahead log of its own, fsynced on the
	// log's 100 ms timer.
	wal bool

	// Platform: points×points access points of the given capacity.
	points   int
	capacity units.Bandwidth
	policy   string

	// Traffic. Volumes are the paper ladder times volScale; MaxRate is
	// uniform in [rateMin, rateMax]; the window is slack×vol/MaxRate with
	// slack uniform in [1.5, 4] (workload.Default(Flexible)).
	volScale         float64
	rateMin, rateMax units.Bandwidth
	// load is the paper's offered load λ·E[vol]/(½C); it fixes the mean
	// inter-arrival gap the virtual clock advances by per submission.
	load float64
	// bookAhead is the share of submissions with NotBefore > now; a third
	// of those start beyond the 4096 s bucket ring.
	bookAhead float64

	// mix weighs submit/batch/cancel/lookup, in opKind order.
	mix         [numOps]int
	batchSize   int
	batchBinary bool
	durable     bool

	// openRate is the open-loop phase's pinned offered rate in ops/s,
	// about 40% of the closed-loop op rate on the 2-core reference box.
	openRate float64
	// warmup is how many submissions set-up decides before measuring:
	// at least 3× the 4096-entry retention ring, so entry recycling and
	// occupancy are in steady state.
	warmup int

	// yard shapes the yardstick service the workload's timings are
	// calibrated against (yard.go).
	yard yardSpec
}

// Slack range of workload.Default(workload.Flexible), the paper's §5.3
// flexible requests.
var slackMin, slackMax = workload.Default(workload.Flexible).SlackMin, workload.Default(workload.Flexible).SlackMax

// ladderScale shrinks the paper's volume ladder (10 GB … 1 TB) to
// 0.1 … 10 GB. Admission is invariant under a common scaling of volumes
// and inter-arrival gaps; the scale only places transfer times (seconds
// to ~half an hour) inside the daemon's absolute constants — the 4096 s
// bucket ring and the 60 s cap on cross-shard hold TTLs, which a 30 s
// paper-scale inter-arrival gap would outrun between RESERVE and CONFIRM.
const ladderScale = 0.01

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names in the same order (checked by TestBenchmarkJSONMatches).
var workloads = []workloadSpec{
	{
		name: "single_json",
		why:  "one daemon, sparse profiles, JSON submits: client+transport+HTTP codec are ~98% of a submit, so an HTTP-path diet shows here and any observability addition must not slow it",
		topo: topoSingle, wal: true,
		points: 10, capacity: 1 * units.GBps, policy: "f=0.5",
		volScale: ladderScale, rateMin: 10 * units.MBps, rateMax: 1 * units.GBps,
		load: 0.85,
		mix:  [numOps]int{70, 10, 10, 10}, batchSize: 8,
		openRate: 6400, warmup: 16384,
		yard: yardSpec{work: 20, hops: 0, soloUs: 58, closedUs: 82, openUs: 66},
	},
	{
		name: "batch_dense",
		why:  "one daemon, hundreds of live grants per point, 64-item binary batches, 30% book-ahead: HTTP is amortised so core+alloc+policy dominate; kernel, pair-lock and profile changes show here",
		topo: topoSingle, wal: false,
		points: 10, capacity: 10 * units.GBps, policy: "f=0.5",
		volScale: 1.0 / 30, rateMin: 10 * units.MBps, rateMax: 100 * units.MBps,
		load: 1.5, bookAhead: 0.30,
		mix: [numOps]int{20, 60, 10, 10}, batchSize: 64, batchBinary: true,
		openRate: 600, warmup: 131072,
		yard: yardSpec{work: 3000, hops: 0, soloUs: 870, closedUs: 990, openUs: 920},
	},
	{
		name: "routed_cross",
		why:  "router over 2 shard groups, half the pairs cross-shard: the router hop, scatter/gather and the four-trip RESERVE/CONFIRM protocol dominate; cross-shard batching should move batch_p50_us only here",
		topo: topoRouted, wal: true,
		points: 10, capacity: 1 * units.GBps, policy: "f=0.5",
		volScale: ladderScale, rateMin: 10 * units.MBps, rateMax: 1 * units.GBps,
		load: 0.8,
		mix:  [numOps]int{60, 20, 10, 10}, batchSize: 16, batchBinary: true,
		openRate: 1100, warmup: 12288,
		yard: yardSpec{work: 20, hops: 2, soloUs: 115, closedUs: 275, openUs: 225},
	},
	{
		name: "quorum_durable",
		why:  "3-node group, every submission waits for a follower to pull and ack it: the replication round trip is ~80% of a submit, so a faster pull/ack loop shows here and must not move single_json",
		topo: topoQuorum, wal: true,
		points: 10, capacity: 1 * units.GBps, policy: "f=0.5",
		volScale: ladderScale, rateMin: 10 * units.MBps, rateMax: 1 * units.GBps,
		load: 0.8,
		mix:  [numOps]int{70, 20, 5, 5}, batchSize: 16, batchBinary: true, durable: true,
		openRate: 400, warmup: 12288,
		yard: yardSpec{work: 3000, hops: 0, soloUs: 760, closedUs: 1260, openUs: 1160},
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// volumes is the workload's volume ladder in bytes.
func (w *workloadSpec) volumes() []float64 {
	ladder := workload.PaperVolumes()
	out := make([]float64, len(ladder))
	for i, v := range ladder {
		out[i] = float64(v) * w.volScale
	}
	return out
}

// halfCapacity is ½·(ΣBin + ΣBout), the denominator of the paper's load
// and RESOURCE-UTIL definitions.
func (w *workloadSpec) halfCapacity() float64 {
	return float64(w.capacity) * float64(w.points)
}

// meanGap is the mean inter-arrival time (virtual seconds) that offers
// w.load on the platform: E[vol] / (load · ½C).
func (w *workloadSpec) meanGap() float64 {
	var sum float64
	vols := w.volumes()
	for _, v := range vols {
		sum += v
	}
	return sum / float64(len(vols)) / (w.load * w.halfCapacity())
}
