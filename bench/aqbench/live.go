package main

import (
	"context"
	"math"
	"net/url"
	"strconv"
	"time"
)

// liveTrace is the traced run's view of the live server: a 5 Hz /metrics
// scrape (plus a flight-recorder pull every fifth scrape) over the second
// half of the measured phase, and MemStats at both ends.
type liveTrace struct {
	traceQuery string          // query whose flight recorder is pulled
	lat        []time.Duration // scrape latencies
	queueMax   float64         // deepest ingest queue or ring backlog seen, tuples
	lagMax     float64         // deepest ring lag seen, batches
	mem0       map[string]float64
	gc0        float64
	haveStart  bool
	startError error
}

func (lt *liveTrace) observe(samples []promSample) {
	for _, s := range samples {
		switch s.name {
		case "aq_ingest_queue_depth", "aq_queue_depth":
			lt.queueMax = math.Max(lt.queueMax, s.value)
		case "aq_fanout_lag_batches":
			lt.lagMax = math.Max(lt.lagMax, s.value)
		}
	}
}

func promValue(samples []promSample, name string) float64 {
	var v float64
	for _, s := range samples {
		if s.name == name {
			v += s.value
		}
	}
	return v
}

// poll scrapes until ctx ends.
func (lt *liveTrace) poll(ctx context.Context, c *child, every time.Duration) {
	if m, err := c.memStats(); err == nil {
		lt.mem0 = m
	} else {
		lt.startError = err
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for i := 0; ; i++ {
		start := time.Now()
		samples, err := c.scrape()
		if err == nil {
			lt.lat = append(lt.lat, time.Since(start))
			lt.observe(samples)
			if !lt.haveStart {
				lt.gc0, lt.haveStart = promValue(samples, "aq_go_gc_cycles_total"), true
			}
		}
		if i%5 == 4 {
			// Load only: the reply is the server's own account of the run.
			c.getBody("/debug/aq/trace?last=1000&query=" + url.QueryEscape(lt.traceQuery))
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// finish reads the end-of-run instruments and fills the aqserver.*,
// fleet.* and fanout.* rows that only a live server can answer. from is
// the edge at which polling began.
func (lt *liveTrace) finish(c *child, w workload, from edge, out map[string]float64) error {
	if lt.startError != nil {
		return lt.startError
	}
	samples, err := c.scrape()
	if err != nil {
		return err
	}
	lt.observe(samples)
	mem1, err := c.memStats()
	if err != nil {
		return err
	}
	to, err := readEdge(c, w)
	if err != nil {
		return err
	}

	// Wire latency: client due time to window emission, all sources.
	var count, sum float64
	buckets := map[float64]float64{}
	for _, s := range samples {
		switch s.name {
		case "aq_wire_latency_ms_count":
			count += s.value
		case "aq_wire_latency_ms_sum":
			sum += s.value
		case "aq_wire_latency_ms_bucket":
			if le, err := strconv.ParseFloat(s.label("le"), 64); err == nil {
				buckets[le] += s.value
			}
		}
	}
	out["aqserver.wire_latency_ms_mean"], out["aqserver.wire_latency_ms_p99"] = 0, 0
	if count > 0 {
		out["aqserver.wire_latency_ms_mean"] = sum / count
		p99 := math.Inf(1)
		for le, cum := range buckets {
			if cum >= 0.99*count && le < p99 {
				p99 = le
			}
		}
		if math.IsInf(p99, 1) {
			p99 = sum / count // every sample beyond the last finite bucket
		}
		out["aqserver.wire_latency_ms_p99"] = p99
	}

	tuples := float64(to.tuples - from.tuples)
	out["aqserver.queue_depth_max"] = lt.queueMax
	out["aqserver.gc_cycles"] = promValue(samples, "aq_go_gc_cycles_total") - lt.gc0
	out["aqserver.alloc_bytes_per_tuple"] = 0
	if tuples > 0 {
		out["aqserver.alloc_bytes_per_tuple"] = (mem1["TotalAlloc"] - lt.mem0["TotalAlloc"]) / tuples
	}

	// Losses by cause over the whole paced run: the rate limiter's at the
	// source, ring laps per subscriber (the overload policy is block, so
	// whatever a query shed beyond its source's rate drops is ring laps).
	rateShed := map[string]float64{}
	for _, s := range samples {
		if s.name == "aq_source_rate_shed_total" {
			rateShed[s.label("source")] = s.value
		}
	}
	sts, err := c.statuses()
	if err != nil {
		return err
	}
	var sent, rate, ring float64
	for _, q := range w.queries {
		st := sts[q.name]
		sent += float64(st.TuplesIn + st.Shed)
		rate += rateShed[q.source]
		ring += float64(st.Shed) - rateShed[q.source]
	}
	out["fleet.rate_shed_pct"], out["fanout.shed_pct"] = 0, 0
	if sent > 0 {
		out["fleet.rate_shed_pct"] = 100 * rate / sent
		out["fanout.shed_pct"] = 100 * ring / sent
	}
	out["fanout.lag_batches_max"] = lt.lagMax
	return nil
}
