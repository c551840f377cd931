// Failover: the self-driving failover story end to end, in one process.
//
// A WAL-backed primary serves reservations; a warm standby follows it by
// log shipping; a cluster.Watchdog — the same machinery `gridbwd -watch`
// and `gridbwctl watch` run — probes the primary's health. We then kill
// the primary mid-service. The watchdog counts its misses, checks the
// standby's replication lag, and promotes it under a bumped fencing
// epoch; the multi-endpoint client re-discovers the new primary and
// re-sends its submission under the same idempotency key, which lands
// exactly once. Finally a late-arriving batch from the deposed primary's
// epoch is refused (FencedError) and a brand-new follower whose cursor
// was compacted away is re-seeded on its replication stream: the primary
// sends a checkpoint after the "gone" frame, then the batches past it.
//
// This is a pair, so the standby has no Peers and promotes on its own
// authority. In a group of three or more every daemon lists the others as
// its Peers, and the same promote call must first win a majority of them.
//
// Run with: go run ./examples/failover
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

func serve(srv *server.Server) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { httpSrv.Close() }
}

func platform() server.Config {
	return server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
	}
}

func openWAL(name string) *wal.Log {
	dir, err := os.MkdirTemp("", "gridbw-failover-"+name)
	if err != nil {
		log.Fatal(err)
	}
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: 512})
	if err != nil {
		log.Fatal(err)
	}
	return l
}

func main() {
	ctx := context.Background()

	// A WAL-backed primary and a warm standby following it.
	pcfg := platform()
	pwal := openWAL("primary")
	defer pwal.Close()
	pcfg.WAL = pwal
	primary, err := server.New(pcfg)
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()
	primaryURL, stopPrimary := serve(primary)

	scfg := platform()
	swal := openWAL("standby")
	defer swal.Close()
	scfg.WAL = swal
	scfg.Follow = primaryURL
	standby, err := server.New(scfg)
	if err != nil {
		log.Fatal(err)
	}
	defer standby.Close()
	if err := standby.StartFollowing(); err != nil {
		log.Fatal(err)
	}
	standbyURL, stopStandby := serve(standby)
	defer stopStandby()
	fmt.Printf("primary  %s (epoch %d)\nstandby  %s (following)\n\n", primaryURL, primary.Epoch(), standbyURL)

	// The failover-aware client knows both endpoints.
	c := client.NewWithOptions(primaryURL, nil, client.Options{
		MaxRetries: 8, BaseBackoff: 10 * time.Millisecond,
	}, standbyURL)

	// Book a few transfers on the primary.
	for i := 0; i < 6; i++ {
		r, err := c.Submit(ctx, wire.SubmitRequest{
			From: i % 2, To: (i + 1) % 2,
			Volume: "2GB", MaxRate: "50MB/s", DeadlineIn: "1h",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("booked #%d at %s via %s\n", r.ID, units.Bandwidth(r.RateBps), c.Endpoint())
	}
	// Wait until every primary WAL record reached the standby. (LagBytes
	// alone is as-of the standby's last pull — a decision acked after that
	// pull is invisible to it until the next batch lands.)
	for standby.ReplicationStatus().Applied < primary.ReplicationStatus().WALRecords {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("\nstandby caught up: %d records applied, lag 0\n\n", standby.ReplicationStatus().Applied)

	// The watchdog: probe every 50ms, suspect after 3 misses, refuse to
	// promote a standby that is lagging.
	wd, err := cluster.New(cluster.Config{
		Primary: primaryURL, Standby: standbyURL,
		Interval: 50 * time.Millisecond, Misses: 3, MaxLagBytes: 1 << 20,
		OnTransition: func(from, to cluster.State, in cluster.Input) {
			fmt.Printf("watchdog: %s -> %s on %s\n", from, to, in)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	watchDone := make(chan error, 1)
	go func() { watchDone <- wd.Run(ctx) }()

	// Kill the primary.
	fmt.Println("killing the primary ...")
	stopPrimary()
	primary.Close()
	if err := <-watchDone; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standby promoted itself: epoch %d\n\n", standby.Epoch())

	// The client's next submit re-discovers the primary; the idempotency
	// key makes the retry exactly-once even if the first answer was lost.
	r, err := c.Submit(ctx, wire.SubmitRequest{
		From: 0, To: 1, Volume: "2GB", MaxRate: "50MB/s", DeadlineIn: "1h",
		IdempotencyKey: "after-the-fire",
	})
	if err != nil {
		log.Fatal(err)
	}
	again, err := c.Submit(ctx, wire.SubmitRequest{
		From: 0, To: 1, Volume: "2GB", MaxRate: "50MB/s", DeadlineIn: "1h",
		IdempotencyKey: "after-the-fire",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failover submit landed on %s: #%d (re-sent key answered #%d — same booking)\n\n",
		c.Endpoint(), r.ID, again.ID)

	// The deposed primary's late batch is fenced off the new lineage.
	fcfg := platform()
	fcfg.Follow = standbyURL
	fcfg.Epoch = standby.Epoch()
	replica, err := server.New(fcfg)
	if err != nil {
		log.Fatal(err)
	}
	err = replica.ApplyShipped(wire.ShippedBatch{Epoch: 1})
	var fenced *server.FencedError
	if errors.As(err, &fenced) {
		fmt.Printf("deposed primary's batch refused: %v\n\n", fenced)
	}
	replica.Close()

	// Re-seeding: compact the new primary's WAL, then start a fresh
	// follower — its zero cursor is gone, so its replication stream carries
	// a checkpoint of the primary's state first and the batches after it.
	if n, err := swal.CompactBefore(swal.End()); err == nil {
		fmt.Printf("compacted %d WAL segments on the new primary\n", n)
	}
	f2cfg := platform()
	f2wal := openWAL("follower2")
	defer f2wal.Close()
	f2cfg.WAL = f2wal
	f2cfg.Follow = standbyURL
	follower2, err := server.New(f2cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer follower2.Close()
	if err := follower2.StartFollowing(); err != nil {
		log.Fatal(err)
	}
	for follower2.Status().Stats.Reseeds == 0 ||
		follower2.Status().Active != standby.Status().Active {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("fresh follower re-seeded itself: %d live reservations, epoch %d — zero acked bookings lost\n",
		follower2.Status().Active, follower2.Epoch())
}
