package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// windowResult is one timed window: a light phase, then a heavy phase.
type windowResult struct {
	rec          *recorder
	elapsed      [nPhases]time.Duration
	mallocs      uint64
	allocBytes   uint64
	peakRSSMB    float64
	checkedRatio float64
}

// runWindow drives both load phases, each for half of window, and
// records every outcome. With tr set, each request also records spans.
func runWindow(r *run, chk *checker, tr *tracer, window time.Duration) (*windowResult, error) {
	rec := newRecorder(r.w.limit, chk)
	rec.tr = tr
	r.rec = rec
	res := &windowResult{rec: rec}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	checkedBefore, matchedBefore := chk.counts()
	for ph := 0; ph < nPhases; ph++ {
		start := time.Now()
		if err := r.w.drive(r, ph, window/nPhases); err != nil {
			return nil, err
		}
		res.elapsed[ph] = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	checked, matched := chk.counts()
	if n := checked - checkedBefore; n > 0 {
		res.checkedRatio = float64(matched-matchedBefore) / float64(n)
	}
	var err error
	res.peakRSSMB, err = peakRSSMB()
	return res, err
}

// counts returns the requests attempted and those not answered.
func (w *windowResult) counts() (attempted, notAnswered int) {
	for _, p := range w.rec.phases {
		attempted += p.attempted
		notAnswered += p.attempted - p.answered
	}
	return attempted, notAnswered
}

// correct reports whether every answered image matched its reference.
func (w *windowResult) correct() bool { return w.checkedRatio == 1 }

func (w *windowResult) printCounts(out io.Writer) {
	for ph, p := range w.rec.phases {
		fmt.Fprintf(out, "%-5s attempted=%d succeeded=%d failed=%d shed=%d refused=%d images=%d in %.3fs\n",
			phaseNames[ph], p.attempted, p.answered, p.failed, p.shed, p.refused, p.images, w.elapsed[ph].Seconds())
	}
	targets := make([]string, 0, len(w.rec.firstErr))
	for t := range w.rec.firstErr {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		fmt.Fprintf(out, "first failure on %s: %s\n", t, w.rec.firstErr[t])
	}
}

// putLatency records a latency percentile under the tail rule. Where
// the sample is too small for p, the highest percentile it supports is
// reported instead, and the note says which.
func putLatency(res *resultSet, name string, samples []float64, p float64) error {
	v, used, ok := tailPercentile(samples, p)
	if !ok {
		return fmt.Errorf("%s: %d samples support no percentile", name, len(samples))
	}
	note := ""
	if used != p {
		note = fmt.Sprintf("p%.1f: too few samples for p%g", used, p)
	}
	res.put(name, "ms", v, len(samples), note)
	return nil
}

// endToEnd derives the end-to-end metrics of one window.
func endToEnd(res *resultSet, w *workload, win *windowResult, setups []float64) error {
	rec := win.rec
	res.put("setup_s", "s", median(append([]float64(nil), setups...)), len(setups),
		"median of set-ups, each in its own process")
	var images, answered, attempted, notAnswered int
	var secs float64
	for ph, p := range rec.phases {
		images += p.images
		answered += p.answered
		attempted += p.attempted
		notAnswered += p.attempted - p.answered
		secs += win.elapsed[ph].Seconds()
	}
	if attempted == 0 {
		return fmt.Errorf("%s: no request was sent", w.name)
	}
	res.put("throughput_ips", "img/s", float64(images)/secs, answered, "answered images over the window")
	for ph, p := range rec.phases {
		for _, q := range []float64{50, 99} {
			name := fmt.Sprintf("lat_p%g_ms.%s", q, phaseNames[ph])
			if err := putLatency(res, name, append([]float64(nil), p.latMS...), q); err != nil {
				return err
			}
		}
	}
	hv := rec.phases[heavy]
	res.put("slo_ratio.heavy", "ratio", float64(hv.withinLimit)/float64(hv.attempted), hv.attempted,
		fmt.Sprintf("answered correctly within %v", w.limit))
	res.put("answered_ratio", "ratio", float64(answered)/float64(attempted), attempted, "1 − error_ratio")
	res.put("error_ratio", "ratio", float64(notAnswered)/float64(attempted), attempted, "(failed+shed+refused)/attempted")
	checked, matched := rec.chk.counts()
	res.put("class_match_ratio", "ratio", win.checkedRatio, checked, fmt.Sprintf("%d of %d images in this process so far", matched, checked))
	res.put("peak_rss_mb", "MB", win.peakRSSMB, 0, "VmHWM")
	return nil
}

// layerMetrics derives the per-layer figures of a traced window. Those
// every workload has go to layers; those only some workloads have go
// to extra.
func layerMetrics(layers, extra *resultSet, w *workload, sys *system, win *windowResult) {
	rec := win.rec
	tail := func(res *resultSet, name string, samples []float64, p float64) {
		if err := putLatency(res, name, append([]float64(nil), samples...), p); err != nil {
			res.put(name, "ms", 0, len(samples), "no samples")
		}
	}
	tail(layers, "muxwire.wire_ms_p50", rec.wireMS, 50)
	tail(layers, "muxwire.wire_ms_p99", rec.wireMS, 99)
	tail(layers, "serve.queue_ms_p50", rec.queueMS, 50)
	tail(layers, "serve.queue_ms_p99", rec.queueMS, 99)
	nImages := len(rec.queueMS)
	layers.put("serve.batch_occupancy", "img/batch", float64(nImages)/rec.invBatch, nImages, "")
	layers.put("serve.compute_ms_per_image", "ms", rec.computeMS/float64(nImages), nImages, "")
	attempted, _ := win.counts()
	layers.put("process.allocs_per_req", "count", float64(win.mallocs)/float64(attempted), attempted, "whole process")
	layers.put("process.alloc_bytes_per_req", "B", float64(win.allocBytes)/float64(attempted), attempted, "whole process")
	var lag []float64
	for _, p := range rec.phases {
		lag = append(lag, p.lagMS...)
	}
	tail(layers, "loadgen.lag_p99_ms", lag, 99)
	layers.put("serve.new_server_ms", "ms", ms(sys.newServer), 0, "")
	layers.put("serve.first_response_ms", "ms", ms(sys.firstResponse), 0, "")
	layers.put("nn.tuner_timed", "count", float64(sys.tunerTimed), 0, "during set-up")
	layers.put("nn.tuner_memo_hits", "count", float64(sys.tunerMemo), 0, "during set-up")
	layers.put("nn.tuner_disk_hits", "count", float64(sys.tunerDisk), 0, "during set-up")

	if w.name == "offline-batch" {
		for _, s := range w.stacks {
			t := rec.perTarget[s.name]
			if t == nil {
				continue
			}
			ips := 0.0
			if t.busy > 0 {
				ips = float64(t.images) / t.busy.Seconds()
			}
			extra.put("offline.ips."+s.name, "img/s", ips, t.attempted, "answered images per second a caller waited on this config")
			extra.put("offline.failed."+s.name, "count", float64(t.failed), t.attempted, "")
		}
	}
	if len(rec.httpRTTMS) > 0 {
		tail(extra, "httpapi.rtt_ms_p50", rec.httpRTTMS, 50)
	}
	if w.wire {
		for _, s := range w.stacks {
			extra.put("serve.route_share."+s.name, "ratio", float64(rec.routed[s.name])/float64(nImages), nImages, "")
		}
		var shedN, noVariant int
		for _, p := range rec.phases {
			shedN += p.shed
			noVariant += p.refusedNoVariant
		}
		extra.put("serve.shed", "count", float64(shedN), attempted, "")
		extra.put("serve.no_variant", "count", float64(noVariant), attempted, "")
		tenants := make([]string, 0, len(rec.tenantMS))
		for t := range rec.tenantMS {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			tail(extra, "tenant.lat_p99_ms."+t, rec.tenantMS[t], 99)
		}
	}
}
