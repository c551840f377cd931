// Daemon: drive the gridbwd admission-control daemon over its HTTP API.
//
// It starts the server in-process on a loopback port, then uses the typed
// client package the way grid middleware would: a rigid book-ahead
// reservation for a future maintenance window, a mix of flexible bulk
// transfers granted immediately, an overload rejection once the ingress
// is saturated, and a cancellation that frees the window again.
//
// Run with: go run ./examples/daemon
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
)

func main() {
	srv, err := server.New(server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Policy:  "f=0.8",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Shutdown(context.Background())

	ctx := context.Background()
	c := client.New("http://"+ln.Addr().String(), nil)
	fmt.Printf("gridbwd on %s (%s, policy %s)\n\n", ln.Addr(), srv.Network(), srv.PolicyName())

	report := func(what string, d server.ReservationJSON, err error) {
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		if d.Accepted {
			fmt.Printf("%-34s ACCEPTED #%d at %s, window [%gs, %gs]\n",
				what, d.ID, units.Bandwidth(d.RateBps), d.SigmaS, d.TauS)
		} else {
			fmt.Printf("%-34s rejected (%s)\n", what, d.Reason)
		}
	}

	// A rigid book-ahead: 360 GB across a maintenance window one hour out.
	// MinRate equals MaxRate, so the daemon books the exact rectangle.
	rigid, err := c.Submit(ctx, server.SubmitRequest{
		From: 0, To: 1, Volume: "360GB", MaxRate: "600MB/s",
		StartIn: "1h", DeadlineIn: "70m",
	})
	report("rigid booking (starts in 1h)", rigid, err)

	// Flexible transfers start immediately at the policy rate f·MaxRate.
	flex, err := c.Submit(ctx, server.SubmitRequest{
		From: 0, To: 0, Volume: "500GB", MaxRate: "1GB/s", DeadlineIn: "30m",
	})
	report("flexible 500GB (0 -> 0)", flex, err)
	d, err := c.Submit(ctx, server.SubmitRequest{
		From: 1, To: 1, Volume: "200GB", MaxRate: "500MB/s", DeadlineIn: "20m",
	})
	report("flexible 200GB (1 -> 1)", d, err)

	// Ingress 0 now carries 800 MB/s; a transfer that needs at least
	// 300 MB/s to meet its deadline no longer fits.
	d, err = c.Submit(ctx, server.SubmitRequest{
		From: 0, To: 0, Volume: "180GB", MaxRate: "1GB/s", DeadlineIn: "10m",
	})
	report("overload 180GB (0 -> 0)", d, err)

	st, err := c.Status(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstatus: %d active, %d booked, %d/%d accepted\n",
		st.Active, st.Booked, st.Accepted, st.Submitted)
	for _, p := range st.Points {
		fmt.Printf("  %s %d: %3.0f%% of %s\n", p.Dir, p.Point,
			100*p.Utilization, units.Bandwidth(p.CapacityBps))
	}

	// Cancelling the big flexible transfer frees ingress 0, and the
	// transfer that was just rejected now gets in.
	cancelled, err := c.Cancel(ctx, flex.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncancelled #%d (state %s)\n", cancelled.ID, cancelled.State)
	d, err = c.Submit(ctx, server.SubmitRequest{
		From: 0, To: 0, Volume: "180GB", MaxRate: "1GB/s", DeadlineIn: "10m",
	})
	report("retry 180GB (0 -> 0)", d, err)
}
