// Command gridbwrouter is the stateless scale-out tier: it
// consistent-hashes (ingress, egress) access-point pairs onto a static
// ring of gridbwd shard groups, proxies same-shard traffic straight
// through (including the binary batch codec, split by owning shard and
// reassembled in request order), and drives cross-shard pairs through the
// wire-level two-phase hold protocol (POST /v1/reserve, /v1/confirm,
// /v1/abort on the shards).
//
// Every -shard flag names one shard group and lists its member endpoints;
// the router reaches each group through a failover-aware client that
// rediscovers the primary on fencing or read-only refusals. Shard order,
// -seed, and -replicas define the routing function and the ID namespace
// (visible = local×N + shard), so every router instance — and the offline
// checker — must agree on them.
//
// Examples:
//
//	gridbwrouter -addr :8090 -shard s0=http://127.0.0.1:8080 -shard s1=http://127.0.0.1:8081
//	gridbwrouter -shard s0=http://a:8080,http://a2:8081 -shard s1=http://b:8080 -hold-ttl 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gridbw/internal/router"
	"gridbw/internal/server/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridbwrouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fset := flag.NewFlagSet("gridbwrouter", flag.ContinueOnError)
	addr := fset.String("addr", ":8090", "listen address")
	seed := fset.Uint64("seed", 0, "consistent-hash ring seed; all router instances must agree")
	replicas := fset.Int("replicas", 0, "vnodes per shard on the ring (0 = default 64)")
	holdTTL := fset.Duration("hold-ttl", 0, "TTL of unconfirmed cross-shard holds; each protocol step waits a quarter of it for a shard (0 = default 5s)")
	timeout := fset.Duration("timeout", 0, "per-attempt deadline of shard calls (0 = client default 10s)")
	maxBatch := fset.Int("max-batch", 0, "submissions accepted per POST /v1/batch call (0 = default 1024)")
	drainTimeout := fset.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window for in-flight requests")
	var shards []router.ShardConfig
	fset.Func("shard", "shard group as name=url1,url2,... (repeatable; order defines shard indices)", func(v string) error {
		sc, err := parseShard(v)
		if err != nil {
			return err
		}
		shards = append(shards, sc)
		return nil
	})
	if err := fset.Parse(args); err != nil {
		return err
	}
	if len(shards) == 0 {
		return errors.New("at least one -shard is required")
	}

	rt, err := router.New(router.Config{
		Shards:   shards,
		Seed:     *seed,
		Replicas: *replicas,
		HoldTTL:  *holdTTL,
		MaxBatch: *maxBatch,
		Client:   client.Options{CallTimeout: *timeout},
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("gridbwrouter serving on %s (%d shards, seed %d)", *addr, len(shards), *seed)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining for up to %s", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	// Shutdown does not see the call streams the router took over.
	rt.Close()
	return nil
}

// parseShard parses one -shard value: name=url1,url2,...
func parseShard(v string) (router.ShardConfig, error) {
	name, list, ok := strings.Cut(v, "=")
	if !ok || strings.TrimSpace(name) == "" {
		return router.ShardConfig{}, fmt.Errorf("bad -shard %q (want name=url1,url2,...)", v)
	}
	sc := router.ShardConfig{Name: strings.TrimSpace(name)}
	for _, part := range strings.Split(list, ",") {
		if p := strings.TrimSpace(part); p != "" {
			sc.Endpoints = append(sc.Endpoints, strings.TrimRight(p, "/"))
		}
	}
	if len(sc.Endpoints) == 0 {
		return router.ShardConfig{}, fmt.Errorf("-shard %q lists no endpoints", v)
	}
	return sc, nil
}
