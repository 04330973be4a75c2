// Command spider-serve runs the crash-safe long-running service mode: a
// daemon owning one live scenario, advancing virtual time in bounded
// quanta, accepting external inputs over HTTP, and journaling every
// input to a write-ahead intent log so a crash (or SIGKILL) loses
// nothing that was ever acknowledged. Restarting with the same state
// directory restores the world by deterministic replay and continues —
// the resumed event/span streams are byte-identical to an uninterrupted
// run's (see DESIGN.md §12).
//
// Quickstart:
//
//	spider-serve -dir /tmp/spider-state -config examples/serve/corridor.json
//	curl localhost:7788/v1/status
//	curl -X POST localhost:7788/v1/intents -d '{"kind":"inject-chaos","chaos":{"Name":"demo","Events":[{"Kind":1,"AP":0,"Duration":5000000000}]}}'
//	curl -X POST localhost:7788/v1/shutdown
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"spider/internal/atomicwrite"
	"spider/internal/obs"
	"spider/internal/serve"
	"spider/internal/sim"
)

func main() {
	var (
		dir      = flag.String("dir", "", "state directory (config, WAL, snapshot, artifacts); required")
		config   = flag.String("config", "", "world spec JSON (required on first boot of a directory)")
		listen   = flag.String("listen", "127.0.0.1:7788", "HTTP listen address (empty disables the API)")
		quantum  = flag.Duration("quantum", time.Second, "virtual time per loop step")
		pace     = flag.Float64("pace", 0, "virtual/wall speed factor (0 = free-running)")
		until    = flag.Duration("until", 0, "stop after this much virtual time (0 = spec horizon)")
		queue    = flag.Int("queue", 64, "control queue depth (full queue answers 429)")
		reqDL    = flag.Duration("deadline", 2*time.Second, "per-request wall deadline (503 past it)")
		stepDL   = flag.Duration("step-deadline", 5*time.Second, "wall budget per step before a serve.stall event")
		ckptEach = flag.Duration("checkpoint-every", 30*time.Second, "virtual checkpoint cadence")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "spider-serve: -dir is required")
		os.Exit(2)
	}

	var spec *serve.WorldSpec
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fatal(err)
		}
		spec = new(serve.WorldSpec)
		err = serve.DecodeStrict(f, spec)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *config, err))
		}
	}

	srv, err := serve.Open(*dir, spec)
	if err != nil {
		fatal(err)
	}
	if restored := srv.Restored(); restored > 0 {
		fmt.Printf("spider-serve: restored to virtual %s (%d intents applied)\n", restored, srv.Applied())
	}

	d := serve.NewDaemon(srv, serve.DaemonConfig{
		Quantum:         sim.Time(*quantum),
		Until:           sim.Time(*until),
		Pace:            *pace,
		QueueLen:        *queue,
		RequestDeadline: *reqDL,
		StepDeadline:    *stepDL,
		CheckpointEvery: sim.Time(*ckptEach),
	})

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var httpSrv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		httpSrv = &http.Server{Handler: d.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		fmt.Printf("spider-serve: listening on http://%s (hash %s)\n", ln.Addr(), srv.Hash())
	}

	loopErr := make(chan error, 1)
	go func() { loopErr <- d.Run(ctx) }()
	err = <-loopErr

	if httpSrv != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(sctx)
		scancel()
	}
	if err != nil {
		fatal(err)
	}

	// Publish the run's deterministic artifacts. Finalize seals open
	// spans at the drain clock; replays of the same WAL to the same
	// clock produce byte-identical files.
	srv.Scenario().Finalize()
	if err := writeArtifacts(*dir, srv); err != nil {
		fatal(err)
	}
	fmt.Printf("spider-serve: drained at virtual %s, %d intents applied, artifacts in %s\n",
		srv.Now(), srv.Applied(), *dir)
}

// writeArtifacts atomically publishes the event, span, and daemon
// lifecycle JSONL streams into the state directory.
func writeArtifacts(dir string, srv *serve.Server) error {
	write := func(name string, emit func(f *atomicwrite.File) error) error {
		f, err := atomicwrite.Create(filepath.Join(dir, name), 0o644)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Abort()
			return err
		}
		return f.Commit()
	}
	if err := write("events.jsonl", func(f *atomicwrite.File) error {
		return obs.WriteJSONL(f, "", srv.Recorder().Events())
	}); err != nil {
		return err
	}
	if err := write("spans.jsonl", func(f *atomicwrite.File) error {
		return obs.WriteSpansJSONL(f, "", srv.Recorder().Spans())
	}); err != nil {
		return err
	}
	return write("lifecycle.jsonl", func(f *atomicwrite.File) error {
		return obs.WriteJSONL(f, "", srv.Lifecycle().Events())
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spider-serve:", err)
	os.Exit(1)
}
