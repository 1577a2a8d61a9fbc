package node

import (
	"pisa/internal/obs"
)

// bridgeObs mirrors the client's lifetime counters into the process
// obs registry as live callbacks, labeled by the client's role
// ("stp", "sdc"). Callback registration is replace-latest, so a
// redialed client simply takes over its role's series.
func (c *client) bridgeObs(role string) {
	r := obs.Default()
	labels := obs.Labels{"client": role}
	r.CounterFunc("pisa_node_client_calls_total",
		"top-level RPCs issued (not attempts)", labels, c.calls.Load)
	r.CounterFunc("pisa_node_client_dials_total",
		"TCP connects attempted", labels, c.dials.Load)
	r.CounterFunc("pisa_node_client_dial_failures_total",
		"TCP connects that failed", labels, c.dialFailures.Load)
	r.CounterFunc("pisa_node_client_retries_total",
		"extra attempts after a transport fault", labels, c.retries.Load)
	r.CounterFunc("pisa_node_client_remote_errors_total",
		"authoritative peer errors (never retried)", labels, c.remoteErrors.Load)
	r.CounterFunc("pisa_node_client_transport_faults_total",
		"dropped or desynchronised connections", labels, c.transportFaults.Load)
}

// bridgeObs mirrors the server's lifetime counters into the process
// obs registry, labeled by the server's role ("sdc", "stp", "pirdb").
func (s *server) bridgeObs() {
	r := obs.Default()
	labels := obs.Labels{"server": s.name}
	r.CounterFunc("pisa_node_server_connections_total",
		"connections accepted", labels, s.connections.Load)
	r.CounterFunc("pisa_node_server_requests_total",
		"envelopes handled, including ones that produced handler errors", labels, s.requests.Load)
	r.CounterFunc("pisa_node_server_errors_total",
		"handler errors returned to peers", labels, s.errors.Load)
}
