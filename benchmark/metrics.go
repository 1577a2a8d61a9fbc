package main

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"time"

	"pisa/internal/paillier"
	"pisa/internal/pisa"
)

// metricDecl names one reported metric. BENCHMARK.json repeats these
// names and units (the smoke test holds the two lists together) and
// adds, for the end-to-end ones, the direction and regression bound.
type metricDecl struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what an SU or an
// operator sees, from raw samples taken around whole requests.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"request_ms_p50", "ms"},
	{"request_tail_ratio", "ratio"},
	{"requests_per_s", "1/s"},
	{"cpu_s_per_request", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// deploy reports 0.
var perLayer = []metricDecl{
	{"su.prepare_ms_p50", "ms"}, {"su.refresh_ms_p50", "ms"}, {"su.open_ms_p50", "ms"},
	{"su.prepare_us_per_ct", "us"}, {"su.ct_per_request", "count"},
	{"sdc.process_ms_p50", "ms"}, {"sdc.self_ms_p50", "ms"}, {"sdc.self_us_per_ct", "us"},
	{"sdc.cache_hit_share", "ratio"}, {"sdc.cache_stale", "count"},
	{"sdc.update_ms_p50", "ms"}, {"sdc.update_self_ms_p50", "ms"},
	{"stp.convert_ms_p50", "ms"}, {"stp.us_per_ct", "us"}, {"stp.ct_per_call", "count"},
	{"stp.calls_per_request", "count"}, {"stp.concurrent_calls_mean", "count"},
	{"router.process_ms_p50", "ms"}, {"router.self_ms_p50", "ms"},
	{"shard.call_ms_p50", "ms"}, {"shard.slowest_ms_p50", "ms"}, {"shard.skew_ms_p50", "ms"},
	{"wire.su_sdc_ms_p50", "ms"}, {"wire.router_shard_ms_p50", "ms"}, {"stp.rpc_ms_p50", "ms"},
	{"wire.su_request_bytes", "B"}, {"wire.su_response_bytes", "B"}, {"wire.sdc_stp_bytes", "B"},
	{"su_wire_bytes_per_request", "B"},
	{"node.retries", "count"}, {"node.dials", "count"},
	{"store.append_ms_p50", "ms"}, {"store.appends", "count"}, {"store.bytes_per_append", "B"},
	{"pu.tune_ms_p50", "ms"}, {"pu_update_ms_p50", "ms"}, {"pu_update_ms_p90", "ms"},
	{"paillier.encrypt_us", "us"}, {"paillier.decrypt_us", "us"}, {"paillier.scalarmul_alpha_us", "us"},
	{"paillier.rerandomize_pooled_us", "us"}, {"paillier.add_us", "us"},
	{"traced.request_ms_p50", "ms"}, {"traced.request_ms_p90", "ms"},
	{"gen.late_ms_p90", "ms"}, {"gen.backlog_peak", "count"},
	{"trace.overhead_share", "ratio"}, {"trace.unattributed_share", "ratio"},
	{"model.paper_request_s", "s"},
	{"failed_share", "ratio"}, {"grant_share", "ratio"}, {"request_samples", "count"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(decls []metricDecl, values map[string]float64, phases ...*phase) result {
	res := result{Metrics: make(map[string]metricValue, len(decls))}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	for _, d := range decls {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// endToEndValues turns the measured phase into the untraced metrics.
// Every time is taken to the nominal host by the yardstick samples of
// the stretch it was measured in; the request figures are computed per
// window and the median window reported.
func endToEndValues(setups []stretch, ph *phase, y *yardstick) map[string]float64 {
	_, peakMiB := rusage()
	var setupS, p50, tail, rate, cpu []float64
	for _, s := range setups {
		scale, _ := y.over(s)
		setupS = append(setupS, s.seconds()*scale)
	}
	for _, w := range ph.cut() {
		if n := float64(len(w.latMs)); n > 0 {
			scale, used := y.over(w.stretch)
			p50 = append(p50, percentile(w.latMs, 0.5)*scale)
			tail = append(tail, percentile(w.latMs, 0.9)/percentile(w.latMs, 0.5))
			rate = append(rate, n/w.seconds()/scale)
			cpu = append(cpu, (w.cpuS-used)/n*scale)
		}
	}
	return map[string]float64{
		"setup_s":            percentile(setupS, 0.5),
		"request_ms_p50":     percentile(p50, 0.5),
		"request_tail_ratio": percentile(tail, 0.5),
		"requests_per_s":     percentile(rate, 0.5),
		"cpu_s_per_request":  percentile(cpu, 0.5),
		"peak_rss_mb":        peakMiB,
	}
}

// counters are the deployment's own counts, read before and after the
// traced pass.
type counters struct {
	cache                pisa.CacheCounters
	suIn, suOut, stpWire int64
	retries, dials       uint64 // every RPC client's, since it was dialled
}

func readCounters(d *deployment) counters {
	c := counters{cache: d.cacheStats()}
	c.retries, c.dials = d.clientStats()
	if d.suWire != nil {
		c.suIn, c.suOut = d.suWire.in.Load(), d.suWire.out.Load()
	}
	if d.stpWire != nil {
		c.stpWire = d.stpWire.in.Load() + d.stpWire.out.Load()
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues reduces the traced pass — spans, the STP listener's
// exchanges, counter deltas, raw samples — to the per-layer metrics.
// ref is the untraced reference segment of the same run.
func perLayerValues(params pisa.Params, spans []span, stpEx []exchange, before, after counters,
	ref, traced *phase, micro map[string]float64) map[string]float64 {
	tree := newSpanTree(spans)
	ms := map[string][]float64{}
	add := func(k string, v float64) { ms[k] = append(ms[k], v) }
	var requests, stpCalls, appends float64
	var rootNs, blockNs, openNs, reqCt, prepNs, prepCt, sdcSelfNs, sdcCt, stpNs, stpCt, appendBytes float64
	shardMs := map[string][]float64{} // request -> its shard calls
	for i, s := range spans {
		forSU := strings.HasPrefix(s.Request, "su-")
		dur, self := float64(s.EndNs-s.StartNs), float64(tree.selfNs(i))
		switch {
		case s.Name == "request":
			requests++
			rootNs += dur
			blockNs += float64(tree.blockingNs(i))
		case s.Layer == layerSU:
			add(s.Name, s.ms())
			switch s.Name {
			case "su.open":
				openNs += dur
			case "su.prepare":
				prepNs += dur
				prepCt += float64(s.Ct)
				reqCt += float64(s.Ct)
			default:
				reqCt += float64(s.Ct)
			}
		case s.Layer == layerSDC && strings.HasSuffix(s.Name, ".process"):
			add("sdc.process", s.ms())
			add("sdc.self", self/1e6)
			sdcSelfNs += self
			sdcCt += float64(s.Ct)
		case s.Layer == layerSDC && strings.HasSuffix(s.Name, ".update"):
			add("sdc.update", s.ms())
			add("sdc.update_self", self/1e6)
		case s.Layer == layerSTP:
			stpCalls++
			stpNs += dur
			stpCt += float64(s.Ct)
			if strings.HasSuffix(s.Name, ".rpc") {
				add("stp.rpc", s.ms())
			} else {
				add("stp.convert", s.ms())
			}
		case s.Name == "router.process":
			add("router.process", s.ms())
			add("router.self", self/1e6)
		case s.Layer == layerWire && s.Name == "sdc.call" && forSU:
			add("wire.su_sdc", self/1e6)
		case s.Layer == layerWire && strings.HasPrefix(s.Name, "shard") && forSU:
			add("shard.call", s.ms())
			add("wire.router_shard", self/1e6)
			shardMs[s.Request] = append(shardMs[s.Request], s.ms())
		case s.Name == "store.append":
			appends++
			appendBytes += float64(s.Ct)
			add("store.append", s.ms())
		case s.Name == "pu.tune":
			add("pu.tune", s.ms())
		}
	}
	for _, calls := range shardMs {
		lo, hi := calls[0], calls[0]
		for _, c := range calls {
			lo, hi = math.Min(lo, c), math.Max(hi, c)
		}
		add("shard.slowest", hi)
		add("shard.skew", hi-lo)
	}
	// Over a socket the STP's own time is what its listener saw: the
	// exchanges that carried at least one ciphertext (key lookups do not).
	var stpServerNs float64
	for _, e := range stpEx {
		if e.in >= int64(params.PaillierBits/4) {
			add("stp.convert", float64(e.endNs-e.startNs)/1e6)
			stpServerNs += float64(e.endNs - e.startNs)
		}
	}
	if len(stpEx) == 0 {
		stpServerNs = stpNs
	}
	p50 := func(k string) float64 { return percentile(ms[k], 0.5) }
	hit := float64(after.cache.Hits - before.cache.Hits)
	lookups := hit + float64(after.cache.Misses-before.cache.Misses) +
		float64(after.cache.Stale-before.cache.Stale) + float64(after.cache.Expired-before.cache.Expired)
	out := map[string]float64{
		"su.prepare_ms_p50":    p50("su.prepare"),
		"su.refresh_ms_p50":    p50("su.refresh"),
		"su.open_ms_p50":       p50("su.open"),
		"su.prepare_us_per_ct": ratio(prepNs/1e3, prepCt),
		"su.ct_per_request":    ratio(reqCt, requests),

		"sdc.process_ms_p50":     p50("sdc.process"),
		"sdc.self_ms_p50":        p50("sdc.self"),
		"sdc.self_us_per_ct":     ratio(sdcSelfNs/1e3, sdcCt),
		"sdc.cache_hit_share":    ratio(hit, lookups),
		"sdc.cache_stale":        float64(after.cache.Stale - before.cache.Stale),
		"sdc.update_ms_p50":      p50("sdc.update"),
		"sdc.update_self_ms_p50": p50("sdc.update_self"),

		"stp.convert_ms_p50":        p50("stp.convert"),
		"stp.us_per_ct":             ratio(stpServerNs/1e3, stpCt),
		"stp.ct_per_call":           ratio(stpCt, stpCalls),
		"stp.calls_per_request":     ratio(stpCalls, requests),
		"stp.concurrent_calls_mean": ratio(stpNs/1e9, traced.wallS),

		"router.process_ms_p50": p50("router.process"),
		"router.self_ms_p50":    p50("router.self"),
		"shard.call_ms_p50":     p50("shard.call"),
		"shard.slowest_ms_p50":  p50("shard.slowest"),
		"shard.skew_ms_p50":     p50("shard.skew"),

		"wire.su_sdc_ms_p50":        p50("wire.su_sdc"),
		"wire.router_shard_ms_p50":  p50("wire.router_shard"),
		"stp.rpc_ms_p50":            p50("stp.rpc"),
		"wire.su_request_bytes":     ratio(float64(after.suIn-before.suIn), requests),
		"wire.su_response_bytes":    ratio(float64(after.suOut-before.suOut), requests),
		"wire.sdc_stp_bytes":        ratio(float64(after.stpWire-before.stpWire), requests),
		"su_wire_bytes_per_request": ratio(float64(after.suIn-before.suIn+after.suOut-before.suOut), requests),
		"node.retries":              float64(after.retries),
		"node.dials":                float64(after.dials),

		"store.append_ms_p50":    p50("store.append"),
		"store.appends":          appends,
		"store.bytes_per_append": ratio(appendBytes, appends),
		"pu.tune_ms_p50":         p50("pu.tune"),
		"pu_update_ms_p50":       percentile(traced.updateMs, 0.5),
		"pu_update_ms_p90":       percentile(traced.updateMs, 0.9),

		"traced.request_ms_p50":    percentile(traced.latMs, 0.5),
		"traced.request_ms_p90":    percentile(traced.latMs, 0.9),
		"gen.late_ms_p90":          percentile(traced.lateMs, 0.9),
		"gen.backlog_peak":         float64(traced.backlog),
		"trace.overhead_share":     ratio(percentile(traced.busyMs, 0.5), percentile(ref.busyMs, 0.5)) - 1,
		"trace.unattributed_share": 1 - ratio(blockNs, rootNs),
		// Modeled, not measured: every per-ciphertext cost seen here
		// scaled to the paper's 100 x 600 grid (5 000 packed
		// ciphertexts), plus the one fixed cost the SU pays per request.
		"model.paper_request_s": (ratio(rootNs-openNs, reqCt)*5000 + ratio(openNs, requests)) / 1e9,

		"failed_share":    ratio(float64(ref.failed+traced.failed), float64(ref.attempted+traced.attempted)),
		"grant_share":     ratio(float64(traced.grants), float64(len(traced.latMs))),
		"request_samples": float64(len(traced.latMs)),
	}
	for k, v := range micro {
		out[k] = v
	}
	return out
}

// microbench times the Paillier primitives the layers are built from:
// calls direct calls each, median, on the deployment's group key (armed
// by the roles that share it). Decryption needs a private key no role
// gives out, so it runs on a fresh key of the same size.
func microbench(params pisa.Params, group *paillier.PublicKey, calls int) (map[string]float64, error) {
	sk, err := paillier.GenerateKey(nil, params.PaillierBits)
	if err != nil {
		return nil, err
	}
	msg, err := paillier.RandomSigned(nil, params.PlaintextBits, false)
	if err != nil {
		return nil, err
	}
	alpha := new(big.Int).Lsh(big.NewInt(1), uint(params.AlphaBits-1))
	ct, err := group.Encrypt(nil, msg)
	if err != nil {
		return nil, err
	}
	own, err := sk.Public().Encrypt(nil, msg)
	if err != nil {
		return nil, err
	}
	nonces, err := group.NewNonceBatch(nil, calls, 1)
	if err != nil {
		return nil, err
	}
	ops := map[string]func(i int) error{
		"paillier.encrypt_us":            func(int) error { _, err := group.Encrypt(nil, msg); return err },
		"paillier.decrypt_us":            func(int) error { _, err := sk.Decrypt(own); return err },
		"paillier.scalarmul_alpha_us":    func(int) error { _, err := group.ScalarMul(alpha, ct); return err },
		"paillier.rerandomize_pooled_us": func(i int) error { _, err := group.RerandomizeWith(ct, nonces[i]); return err },
		"paillier.add_us":                func(int) error { _, err := group.Add(ct, ct); return err },
	}
	out := make(map[string]float64, len(ops))
	for name, op := range ops {
		us := make([]float64, calls)
		for i := range us {
			start := time.Now()
			if err := op(i); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		out[name] = percentile(us, 0.5)
	}
	return out, nil
}
