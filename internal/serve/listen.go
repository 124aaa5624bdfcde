package serve

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"snode/internal/metrics"
)

// MountDebug mounts a process's debug surface on mux: /debug/vars (the
// expvar page, with reg's snapshot under name) and the net/http/pprof
// profiles. The snapshot is written here and not published through
// expvar.Publish, which panics the second time a process registers a
// name: a mux can be built as often as tests need one.
func MountDebug(mux *http.ServeMux, name string, reg *metrics.Registry) {
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) { fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value) })
		fmt.Fprintf(w, "%q: %s\n}\n", name, expvar.Func(func() any { return reg.Snapshot() }))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Start binds addr and serves h in the background until Drain. It
// returns the server and the bound address (":0" resolved). Serve
// errors and net/http's own messages (handler panics, accept errors)
// go to the default slog logger at error level.
func Start(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("-listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ErrorLog: slog.NewLogLogger(slog.Default().Handler(), slog.LevelError)}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			slog.Error("http: serve", "err", err)
		}
	}()
	return srv, ln.Addr(), nil
}

// Drain stops srv accepting and gives in-flight requests d to finish;
// past d it closes the connections still open and returns the error.
func Drain(srv *http.Server, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err != nil {
		srv.Close()
	}
	return err
}
