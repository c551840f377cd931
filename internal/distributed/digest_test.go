package distributed

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gridbw/internal/faults"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/digest.txt from this build")

// TestDecisionsMatchDigest pins every decision the protocol makes: for each
// run of a fixed sweep — horizon × arrival rate × seed × sync period ×
// message delay × policy × fault schedule (a perfect network and the five
// schedules of TestFaultInjectionInvariants), at the short horizon also on
// the workload snapped onGrid — a hash of every record's
// verdict and grant, bit for bit, and of Report.Faults. The strict MinRate
// policy ignores the handshake's late start, so with a message delay every
// grant it makes misses its deadline and is refused at arrival, before any
// hold or message. testdata/digest.txt pins every verdict, also under
// faults, where Table T8's three decimals would hide a moved one. Its f=1
// and delay=0 lines were recorded while the simulator kept its own hold
// states and scalar occupancy, so they show that internal/hold and
// alloc.Sharded changed no decision. Re-record it (-update) only for a
// change meant to move a decision.
func TestDecisionsMatchDigest(t *testing.T) {
	schedules := []*faults.Config{
		nil,
		{Drop: 0.25},
		{Duplicate: 0.5},
		{Jitter: 0.2},
		{MeanUp: 40, MeanDown: 4},
		{Drop: 0.2, Duplicate: 0.3, Jitter: 0.15, MeanUp: 30, MeanDown: 5},
	}
	var got strings.Builder
	for _, horizon := range []units.Time{150, 400} {
		for _, gap := range []units.Time{0.5, 1, 3} {
			wl := workload.Default(workload.Flexible)
			wl.Horizon, wl.MeanInterArrival = horizon, gap
			net := wl.Network()
			for seed := int64(0); seed < 3; seed++ {
				generated, err := wl.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, grid := range []bool{false, true} {
					if grid && horizon > 150 {
						continue // the short horizon ties often enough; keeps -race quick
					}
					reqs := generated
					if grid {
						reqs = onGrid(t, generated)
					}
					for _, sync := range []units.Time{0, 5, 50, 500} {
						for _, delay := range []units.Time{0, 0.01, 0.2} {
							for _, pol := range []policy.Policy{policy.FractionMaxRate(1), policy.StrictRequestedMinRate()} {
								for si, fc := range schedules {
									cfg := Config{SyncPeriod: sync, MsgDelay: delay, Policy: pol}
									if fc != nil {
										fc := *fc
										fc.Seed = int64(si)*1000 + seed
										if cfg.Faults, err = faults.New(fc); err != nil {
											t.Fatal(err)
										}
										cfg.ReserveTimeout, cfg.RetryInterval = 1.5, 0.4
									}
									rep, err := Run(net, reqs, cfg)
									if err != nil {
										t.Fatal(err)
									}
									h := sha256.New()
									for _, rec := range rep.Records {
										g := rec.Grant
										fmt.Fprintf(h, "%d %d %x %x %x\n", rec.Request, rec.Verdict,
											math.Float64bits(float64(g.Bandwidth)), math.Float64bits(float64(g.Sigma)),
											math.Float64bits(float64(g.Tau)))
									}
									fmt.Fprintf(h, "%+v\n", rep.Faults)
									fmt.Fprintf(&got, "horizon=%v gap=%v seed=%d grid=%t sync=%v delay=%v policy=%s faults=%d %x\n",
										float64(horizon), float64(gap), seed, grid, float64(sync), float64(delay), pol.Name(), si, h.Sum(nil)[:8])
								}
							}
						}
					}
				}
			}
		}
	}
	const path = "testdata/digest.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d runs in the sweep, %d in %s", len(gotLines)-1, len(wantLines)-1, path)
	}
	diverged := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if diverged++; diverged <= 10 {
				t.Errorf("run diverged:\n got %s\nwant %s", gotLines[i], wantLines[i])
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d runs decided differently from the recorded digest", diverged, len(gotLines)-1)
	}
}

// onGrid snaps a workload to whole seconds and whole MB/s, so grant ends
// land exactly on arrivals, sync ticks and message deliveries — the ties a
// workload drawn from continuous distributions never produces.
func onGrid(t *testing.T, reqs *request.Set) *request.Set {
	all := reqs.All()
	for i, r := range all {
		r.MaxRate = units.Bandwidth(max(1, math.Round(float64(r.MaxRate/units.MBps)))) * units.MBps
		dur := units.Time(math.Ceil(float64(r.Volume.Over(r.MaxRate))))
		r.Volume = units.Volume(float64(dur) * float64(r.MaxRate))
		r.Start = units.Time(math.Floor(float64(r.Start)))
		r.Finish = max(units.Time(math.Ceil(float64(r.Finish))), r.Start+dur)
		all[i] = r
	}
	set, err := request.NewSet(all)
	if err != nil {
		t.Fatal(err)
	}
	return set
}
