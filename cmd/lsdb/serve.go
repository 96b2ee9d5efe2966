package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"segdb"
	"segdb/api"
	"segdb/internal/kinds"
	"segdb/internal/router"
)

// serve builds a sharded router over a county and exposes it over HTTP
// until SIGINT/SIGTERM, then shuts down gracefully. The bound address
// is printed on one line ("listening on http://...") so callers that
// asked for an ephemeral port (-addr 127.0.0.1:0) can parse it.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	county := fs.String("county", "Charles", "county name")
	index := fs.String("index", "rstar", "index kind ("+kinds.Flags()+")")
	shards := fs.Int("shards", 4, "number of k-d shards")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	cacheEntries := fs.Int("cache", api.DefaultCacheEntries, "result cache entries (negative disables)")
	quantum := fs.Int("quantum", api.DefaultQuantum, "window cache tile size (1 serves exact windows)")
	timeout := fs.Duration("timeout", api.DefaultTimeout, "per-request query timeout")
	staged := fs.Bool("staged", true, "open shards in staged-ingest mode (POST /v1/ingest never blocks readers)")
	fs.Parse(args)

	kind, err := indexKind(*index)
	if err != nil {
		return err
	}
	m, err := segdb.GenerateCounty(*county)
	if err != nil {
		return err
	}
	start := time.Now()
	var buildOpts []segdb.Option
	if *staged {
		buildOpts = append(buildOpts, segdb.WithStagedIngest())
	}
	r, err := router.Build(kind, m.Segments, *shards, buildOpts...)
	if err != nil {
		return err
	}
	fmt.Printf("built %d %v shard(s) over %d segments of %s in %v\n",
		r.Shards(), kind, r.Len(), *county, time.Since(start).Round(time.Millisecond))
	for i := 0; i < r.Shards(); i++ {
		cov, _ := r.Shard(i).Coverage()
		fmt.Printf("  shard %d: %d segments, coverage %v\n", i, r.Shard(i).Len(), cov)
	}

	srv, err := api.NewServer(api.Config{
		Router:       r,
		Timeout:      *timeout,
		CacheEntries: *cacheEntries,
		Quantum:      int32(*quantum),
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on http://%s\n", l.Addr())
	os.Stdout.Sync()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, l); err != nil {
		return err
	}
	fmt.Println("shut down cleanly")
	return nil
}
