package cluster

import (
	"net/http"

	"incentivetag/internal/server"
)

// handlePromMetrics is the gateway's GET /metrics/prom: the shared edge
// exposition (the node's families, prefixed taggate_) plus per-backend
// proxy health — requests, transport errors, liveness, up/down
// transitions and proxy latency quantiles per node.
func (g *Gateway) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	g.edge.ServeProm(w, func(p *server.Prom) {
		p.Family("backend_up", "gauge", "Backend liveness as seen by the health prober.")
		for _, be := range g.backends {
			up := 0
			if be.up.Load() {
				up = 1
			}
			p.Sample("backend_up", up, "node", be.name)
		}
		p.Family("backend_requests_total", "counter", "Requests proxied to each backend.")
		for _, be := range g.backends {
			p.Sample("backend_requests_total", be.requests.Load(), "node", be.name)
		}
		p.Family("backend_errors_total", "counter", "Transport and 5xx failures per backend.")
		for _, be := range g.backends {
			p.Sample("backend_errors_total", be.errors.Load(), "node", be.name)
		}
		p.Family("backend_transitions_total", "counter", "Up/down liveness flips per backend (flapping tell).")
		for _, be := range g.backends {
			p.Sample("backend_transitions_total", be.transitions.Load(), "node", be.name)
		}
		p.Family("backend_request_quantile_seconds", "gauge", "Upper-bound proxy latency quantiles per backend.")
		for _, be := range g.backends {
			p.Quantiles("backend_request_quantile_seconds", be.hist, "node", be.name)
		}
	})
}
