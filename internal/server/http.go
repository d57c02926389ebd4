package server

import (
	"net/http"
	"strings"
)

// Handler returns the server's observability endpoints as an http.Handler:
//
//	/metrics             the registry's text view, obs.Registry.WriteText (same
//	                     bytes as the STATS command)
//	/metrics?format=prom the registry's Prometheus exposition, WriteProm
//	                     (parseable by obs.ParseProm)
//	/trace               the slow-op trace ring (same bytes as TRACE)
//
// The handler only reads — scrapes fold striped recorders and load atomics,
// never blocking the serving path — so it is safe to serve on any mux or
// listener, including one shared with net/http/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if strings.EqualFold(r.URL.Query().Get("format"), "prom") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.reg.WriteProm(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.reg.WriteText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.WriteTrace(w)
	})
	return mux
}
