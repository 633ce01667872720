// Command entk-serve is the multi-tenant campaign daemon: a long-
// running HTTP/JSON service that accepts declarative campaign
// descriptions (the cmd/entk-run schema) from concurrent clients and
// executes them on shared, pooled resource sets.
//
//	entk-serve -addr 127.0.0.1:8750 -state /var/lib/entk
//
// Endpoints (see internal/serve):
//
//	POST /v1/campaigns                 submit (returns {"id": ...})
//	GET  /v1/campaigns                 list
//	GET  /v1/campaigns/{id}            status + live progress
//	GET  /v1/campaigns/{id}/report     settled report JSON
//	GET  /v1/campaigns/{id}/trace      ENTKPROF trace stream
//	POST /v1/campaigns/{id}/checkpoint on-demand ENTKCKPT stream
//
// Tenants identify themselves with the X-Entk-Tenant header; fair-
// share admission keeps any one tenant from monopolising the shared
// submission path (-tenant-cap, -max-inflight, -weights a=2,b=1).
//
// -mode=real runs every pool on the wall clock with one shared local
// process executor: kernels carrying an "executable" exec as OS
// processes (output under -outdir), and shutdown reaps every live
// process group. Real pools cannot freeze time between campaigns, so
// idle pilots keep burning walltime; see DESIGN.md ("realtime").
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: every in-flight
// graph campaign is checkpointed into the state directory, and a
// restarted daemon (same -state) resumes them where the barriers left
// off. Use cmd/entk-cli to talk to the daemon.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"entk/internal/campaign"
	"entk/internal/serve"
)

// Connection timeouts: a client that stalls sending its request, or
// holds an idle keep-alive connection, is dropped instead of pinning a
// goroutine and a descriptor forever. There is deliberately no
// WriteTimeout: /trace and /checkpoint bodies grow with the campaign,
// and a slow reader of a large one must not be cut mid-stream. The idle
// timeout is far above entk-cli submit -follow's 50 ms poll interval,
// so a follower keeps its connection.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // campaign documents are small
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("entk-serve: ")
	addr := flag.String("addr", "127.0.0.1:8750", "listen address")
	state := flag.String("state", "", "state directory for persistence and resume (empty: none)")
	tenantCap := flag.Int("tenant-cap", 0, "max in-flight campaigns per tenant (0: unlimited)")
	maxInFlight := flag.Int("max-inflight", 0, "max in-flight campaigns total (0: unlimited)")
	weights := flag.String("weights", "", "fair-share weights, e.g. alice=2,bob=1")
	mode := flag.String("mode", "sim", "execution mode: sim (virtual time) or real (wall clock, kernels with an executable run as OS processes)")
	outdir := flag.String("outdir", "", "real mode: directory for per-unit stdout/stderr captures (default: a fresh temp dir)")
	flag.Parse()

	w, err := parseWeights(*weights)
	if err != nil {
		log.Fatal(err)
	}
	md, err := campaign.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}

	o, err := serve.New(serve.Options{
		Mode:        md,
		RealDir:     *outdir,
		StateDir:    *state,
		TenantCap:   *tenantCap,
		MaxInFlight: *maxInFlight,
		Weights:     w,
	})
	if err != nil {
		log.Fatal(err)
	}
	if n := len(o.List()); n > 0 {
		log.Printf("restored %d campaign(s) from %s", n, *state)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(o),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on http://%s (mode=%s)", *addr, md)
	if dir := o.RunnerDir(); dir != "" {
		log.Printf("real mode: unit output under %s", dir)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%v: shutting down, checkpointing in-flight campaigns", sig)
	}
	if err := o.Shutdown(); err != nil {
		log.Printf("shutdown checkpoint: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
}

func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		tenant, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("weights: %q is not tenant=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("weights: %q needs a positive number", part)
		}
		out[tenant] = w
	}
	return out, nil
}
