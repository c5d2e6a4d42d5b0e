package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aipan"
	"aipan/internal/dispatch"
	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// runDistributed runs one study as a dispatch job: a coordinator
// partitions the study list into shards and serves leases over the /v1
// protocol, nWorkers in-process workers (and any external `aipan work`
// processes that join) crawl their leased shards, and the merged store
// exports exactly the bytes a single-process run of the same seed
// would.
func runDistributed(out string, rf runFlags, seed int64, model string, of obsFlags,
	nWorkers int, listen string, ttl time.Duration, shards int) error {
	if err := rf.validate(); err != nil {
		return err
	}
	if _, err := botFor(model); err != nil { // fail before any lease is granted
		return err
	}
	if of.traceOut != "" || of.eventsOut != "" {
		fmt.Fprintln(os.Stderr, "aipan: note: --trace-out/--events-out apply to pipeline processes; "+
			"the coordinator merges records only")
	}

	var st aipan.DatasetStore = store.NewMem()
	var err error
	if rf.checkpoint != "" {
		if st, err = aipan.OpenDatasetStore(rf.storeSpec, rf.checkpoint); err != nil {
			return err
		}
	}
	defer st.Close()

	var logger *aipan.Logger
	if of.logLevel != "" {
		if logger, err = aipan.NewLogger(os.Stderr, of.logLevel); err != nil {
			return err
		}
	}
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
		Spec: dispatch.JobSpec{
			Seed: seed, UniverseDomains: rf.universe, Limit: rf.limit,
			Model: model, Shards: shards,
		},
		Store:    st,
		LeaseTTL: ttl,
		Registry: aipan.DefaultMetrics(),
		Logger:   logger,
	})
	if err != nil {
		return err
	}

	addr := listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "dispatch: job %s on %s (join with: aipan work --join %s)\n",
		coord.JobID(), base, base)
	fmt.Fprintf(os.Stderr, "dispatch: metrics at %s/metrics, progress at %s/v1/jobs/%s\n",
		base, base, coord.JobID())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: coord}
	srvGrp, _ := engine.NewGroup(ctx)
	srvGrp.Go(func(context.Context) error {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return nil
	})
	shutdown := func() {
		sd, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(sd)
	}

	// The listener stays up until every in-process worker has seen the
	// job finish (external workers racing their last poll against
	// shutdown is unavoidable — they tolerate it); with no in-process
	// workers (--listen only) the coordinator itself signals completion.
	var runErr error
	if nWorkers > 0 {
		wg, _ := engine.NewGroup(ctx)
		for i := 0; i < nWorkers; i++ {
			w, werr := dispatch.NewWorker(dispatch.WorkerConfig{
				Coordinator: base,
				ID:          fmt.Sprintf("local-%02d", i),
				Workers:     rf.workers,
				NewBot:      botFor,
				Registry:    aipan.DefaultMetrics(),
				Logger:      logger,
			})
			if werr != nil {
				shutdown()
				_ = srvGrp.Wait()
				_ = wg.Wait()
				return werr
			}
			wg.Go(w.Run)
		}
		runErr = wg.Wait()
	} else {
		runErr = coord.Wait(ctx)
	}
	shutdown()
	if serr := srvGrp.Wait(); runErr == nil {
		runErr = serr
	}
	if runErr != nil {
		return runErr
	}

	if out != "" {
		if err := aipan.ExportDataset(out, st); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote merged dataset to %s\n", out)
	}
	if rf.csvPrefix != "" {
		if err := aipan.ExportAnnotationsCSV(rf.csvPrefix+"-annotations.csv", st); err != nil {
			return err
		}
		if err := aipan.ExportDomainsCSV(rf.csvPrefix+"-domains.csv", st); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s-annotations.csv and %s-domains.csv\n", rf.csvPrefix, rf.csvPrefix)
	}
	fmt.Println(aipan.FunnelTable(coord.Funnel()).Render())
	return nil
}

// cmdWork joins a running coordinator as a worker process: lease a
// shard, run the normal pipeline over it, upload, repeat until the job
// is done.
func cmdWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	join := fs.String("join", "", "coordinator base URL, e.g. http://127.0.0.1:8080 (required)")
	id := fs.String("id", "", "worker name in leases and metrics (default worker-<pid>)")
	workers := fs.Int("workers", 8, "concurrent domains within the leased shard")
	batch := fs.Int("batch", 8, "records per upload batch")
	logLevel := fs.String("log-level", "",
		"emit structured logs to stderr at this level: debug | info | warn | error (default off)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve this worker's /metrics and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("work: --join <coordinator URL> is required")
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}

	var logger *aipan.Logger
	if *logLevel != "" {
		l, err := aipan.NewLogger(os.Stderr, *logLevel)
		if err != nil {
			return err
		}
		logger = l
	}
	if *metricsAddr != "" {
		dbg, err := obs.StartDebugServer(*metricsAddr, aipan.DefaultMetrics(), logger)
		if err != nil {
			return err
		}
		defer dbg.Close()
	}

	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Coordinator: *join,
		ID:          *id,
		Workers:     *workers,
		BatchSize:   *batch,
		NewBot:      botFor,
		Registry:    aipan.DefaultMetrics(),
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return w.Run(ctx)
}
