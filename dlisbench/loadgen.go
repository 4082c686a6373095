package main

import (
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"repro"
)

// Load phases. Every workload offers two fixed loads, light then heavy,
// for half of the timed window each.
const (
	light = iota
	heavy
	nPhases
)

var phaseNames = [nPhases]string{"light", "heavy"}

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate requests per second over dur, drawn from r. Generators seeded
// alike give the same schedule.
func poissonSchedule(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// fixedSchedule returns evenly spaced send offsets at rate per second.
func fixedSchedule(rate float64, dur time.Duration) []time.Duration {
	step := time.Duration(float64(time.Second) / rate)
	var out []time.Duration
	for t := step / 2; t < dur; t += step {
		out = append(out, t)
	}
	return out
}

// openLoop calls send at each scheduled offset from start, whether or
// not earlier requests have completed, and returns when the last one
// has been sent. send must not block for long.
func openLoop(start time.Time, sched []time.Duration, send func(i int, due time.Time)) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		send(i, due)
	}
}

// obs is one request's outcome as the client saw it.
type obs struct {
	phase     int
	due       time.Time // scheduled send time (the actual send time in a closed loop)
	sent      time.Time
	done      time.Time
	transport string // the client's layer: "serve" (in process), "muxwire" or "httpapi"
	tenant    string
	target    string // routing target the request was sent to
	images    []int  // pool indices of the request's images
	resp      *dlis.Response
	err       error
}

// outcome classifies a finished request.
type outcome int

const (
	answered outcome = iota
	failed           // execution or transport failure
	shed             // refused for overload
	refused          // refused by SLO or quota
)

func classify(o *obs) outcome {
	switch {
	case o.err == nil && o.resp != nil && o.resp.Err() == nil:
		return answered
	case errors.Is(o.err, dlis.ErrServerOverloaded):
		return shed
	case errors.Is(o.err, dlis.ErrNoVariant), errors.Is(o.err, dlis.ErrQuotaExceeded):
		return refused
	default:
		return failed
	}
}

// phaseStats aggregates one load phase.
type phaseStats struct {
	attempted, answered, failed, shed, refused int
	refusedNoVariant                           int
	withinLimit                                int
	images                                     int // answered images
	latMS                                      []float64
	lagMS                                      []float64
}

// recorder aggregates outcomes. It checks every answered image against
// its reference as the outcome arrives.
type recorder struct {
	limit time.Duration
	chk   *checker
	tr    *tracer

	mu     sync.Mutex
	phases [nPhases]phaseStats

	// Layer figures, over both phases.
	wireMS    []float64 // client-observed from send minus server Latency
	httpRTTMS []float64 // HTTP stream, send to response
	queueMS   []float64 // Latency − Compute, per image
	computeMS float64   // summed Compute / BatchSize, per image
	invBatch  float64   // Σ 1/BatchSize, per image
	tenantMS  map[string][]float64
	routed    map[string]int // answered images per serving pool
	perTarget map[string]*targetStats
	firstErr  map[string]string // first failure text per target
}

type targetStats struct {
	attempted, failed, images int
	busy                      time.Duration // summed client-observed latency of answered requests
}

func newRecorder(limit time.Duration, chk *checker) *recorder {
	return &recorder{limit: limit, chk: chk, tenantMS: map[string][]float64{},
		routed: map[string]int{}, perTarget: map[string]*targetStats{}, firstErr: map[string]string{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// observe records one finished request.
func (r *recorder) observe(o *obs) {
	kind := classify(o)
	ok := kind == answered
	if ok {
		for i, res := range o.resp.Results {
			if !r.chk.check(res.Stack, o.images[i], res.Output, res.Class) {
				ok = false
			}
		}
	}
	lat := o.done.Sub(o.due)
	var serverLat, compute time.Duration
	if kind == answered {
		for _, res := range o.resp.Results {
			if res.Latency > serverLat {
				serverLat, compute = res.Latency, res.Compute
			}
		}
		r.traceRequest(o, serverLat, compute)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	p := &r.phases[o.phase]
	p.attempted++
	p.lagMS = append(p.lagMS, ms(o.sent.Sub(o.due)))
	t := r.perTarget[o.target]
	if t == nil {
		t = &targetStats{}
		r.perTarget[o.target] = t
	}
	t.attempted++
	switch kind {
	case answered:
		p.answered++
		p.images += len(o.resp.Results)
		t.images += len(o.resp.Results)
		t.busy += lat
		p.latMS = append(p.latMS, ms(lat))
		if ok && lat <= r.limit {
			p.withinLimit++
		}
		r.wireMS = append(r.wireMS, ms(o.done.Sub(o.sent)-serverLat))
		if o.transport == "httpapi" {
			r.httpRTTMS = append(r.httpRTTMS, ms(o.done.Sub(o.sent)))
		}
		if o.tenant != "" {
			r.tenantMS[o.tenant] = append(r.tenantMS[o.tenant], ms(lat))
		}
		for _, res := range o.resp.Results {
			r.queueMS = append(r.queueMS, ms(res.Latency-res.Compute))
			r.computeMS += ms(res.Compute) / float64(res.BatchSize)
			r.invBatch += 1 / float64(res.BatchSize)
			r.routed[res.Stack]++
		}
	case shed:
		p.shed++
	case refused:
		p.refused++
		if errors.Is(o.err, dlis.ErrNoVariant) {
			p.refusedNoVariant++
		}
	default:
		p.failed++
		t.failed++
		if _, seen := r.firstErr[o.target]; !seen {
			err := o.err
			if err == nil && o.resp != nil {
				err = o.resp.Err()
			}
			if err == nil {
				err = errors.New("no response")
			}
			r.firstErr[o.target] = err.Error()
		}
	}
}

// traceRequest records the request's spans: the generator's lag, the
// client-observed round trip, and the server-reported Latency and
// Compute as derived children ending when the response arrived.
func (r *recorder) traceRequest(o *obs, serverLat, compute time.Duration) {
	if r.tr == nil {
		return
	}
	req := r.tr.newID()
	root := r.tr.newID()
	r.tr.record("loadgen.lag", root, req, o.due, o.sent)
	serveID := r.tr.record("serve.queue", root, req, o.done.Add(-serverLat), o.done)
	r.tr.record("nn.compute", serveID, req, o.done.Add(-compute), o.done)
	r.tr.recordID(root, o.transport+".request", 0, req, o.due, o.done)
}
