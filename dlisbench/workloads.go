package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/pareto"
	"repro/internal/tensor"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name   string
	stacks []stackDef // pools the server hosts, each checked against its reference
	limit  time.Duration
	// load is the offered load per phase: closed-loop callers on
	// offline-batch, requests per second elsewhere.
	load     [nPhases]float64
	loadUnit string
	httpRate float64 // wire-tenants: the HTTP stream's fixed rate, inside load
	server   func(workDir string) dlis.ServerConfig
	wire     bool
	drive    func(r *run, phase int, dur time.Duration) error
}

// The fixed parameters of every workload. Rates are sized against a
// 2-vCPU host, where the wire-tenants endpoint answers several hundred
// img/s: heavy stays well below capacity, so that latency tracks the
// program rather than a backlog.
const (
	imagePoolSize = 32
	batchImages   = 8
	endpointName  = "mini-vgg"
)

var tenantWeights = map[string]int{"tenant-a": 3, "tenant-b": 1}

func newWorkload(name string, nproc int) (*workload, error) {
	all, err := miniStacks()
	if err != nil {
		return nil, err
	}
	pick := func(names ...string) []stackDef {
		var out []stackDef
		for _, n := range names {
			for _, s := range all {
				if s.name == n {
					out = append(out, s)
				}
			}
		}
		return out
	}
	switch name {
	case "offline-batch":
		w := &workload{name: name, stacks: all, limit: 500 * time.Millisecond, loadUnit: "callers",
			load: [nPhases]float64{float64(nproc), float64(2 * nproc)}}
		w.server = func(string) dlis.ServerConfig {
			return dlis.ServerConfig{Stacks: specs(w.stacks), Replicas: nproc, MaxBatch: batchImages}
		}
		w.drive = driveClosedLoop
		return w, nil
	case "wire-tenants":
		w := &workload{name: name, stacks: pick("mini-vgg.plain", "mini-vgg.wp", "mini-vgg.cp", "mini-vgg.int8"),
			limit: 25 * time.Millisecond, loadUnit: "req/s", load: [nPhases]float64{120, 200}, httpRate: 10, wire: true}
		w.server = func(workDir string) dlis.ServerConfig {
			ep := dlis.ServerEndpoint{Name: endpointName}
			for _, s := range w.stacks {
				acc, _ := pareto.AccuracyAt("vgg16", s.cfg.Technique, s.cfg.Point)
				ep.Variants = append(ep.Variants, dlis.ServerVariant{
					Spec: dlis.ServerStack{Name: s.name, Stack: s.cfg}, Accuracy: acc})
			}
			tenants := map[string]dlis.TenantSpec{}
			for id, wt := range tenantWeights {
				tenants[id] = dlis.TenantSpec{Weight: wt}
			}
			return dlis.ServerConfig{Endpoints: []dlis.ServerEndpoint{ep}, Replicas: 2, MaxBatch: batchImages,
				Tenants: &dlis.TenantConfig{UsageFile: filepath.Join(workDir, "usage.json"),
					SnapshotInterval: 250 * time.Millisecond, Tenants: tenants}}
		}
		w.drive = driveWire
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func specs(stacks []stackDef) []dlis.ServerStack {
	out := make([]dlis.ServerStack, len(stacks))
	for i, s := range stacks {
		out[i] = dlis.ServerStack{Name: s.name, Stack: s.cfg}
	}
	return out
}

// system is a running server with its listeners.
type system struct {
	srv   *dlis.Server
	local *dlis.LocalClient

	mux      *dlis.MuxListener
	muxAddr  string
	http     *http.Server
	httpAddr string
	serving  sync.WaitGroup // listener Serve loops

	newServer, firstResponse time.Duration
	tunerTimed, tunerMemo    uint64
	tunerDisk                uint64
}

// setUp builds the workload's server, starts its listeners and waits
// until every pool has answered a first request. The returned duration
// runs from the start of server construction until then.
func setUp(w *workload, workDir string, images []*tensor.Tensor, tr *tracer) (*system, time.Duration, error) {
	dlis.ResetTunerCounters()
	cfg := w.server(workDir)
	sys := &system{}
	start := time.Now()
	var err error
	sys.newServer = tr.timed("serve.NewServer", 0, func() { sys.srv, err = dlis.NewServer(cfg) })
	if err != nil {
		return nil, 0, err
	}
	sys.local = dlis.NewLocalClient(sys.srv)
	if w.wire {
		if err := sys.listen(tr); err != nil {
			sys.close()
			return nil, 0, err
		}
	}
	firstStart := time.Now()
	var wg sync.WaitGroup
	for _, pool := range sys.srv.Stacks() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			// An answer is what set-up waits for; a pool whose answer is
			// an error is reported by the load phases.
			_, _ = sys.local.InferSync(context.Background(), dlis.Request{Target: pool, Images: images[:1]})
			tr.record("serve.first_response."+pool, 0, 0, t0, time.Now())
		}()
	}
	wg.Wait()
	end := time.Now()
	sys.firstResponse = end.Sub(firstStart)
	sys.tunerTimed, sys.tunerMemo, sys.tunerDisk = dlis.TunerCounters()
	return sys, end.Sub(start), nil
}

// listen starts the DLW2 and HTTP listeners on loopback.
func (sys *system) listen(tr *tracer) error {
	var err error
	tr.timed("muxwire.listen", 0, func() {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return
		}
		sys.muxAddr = ln.Addr().String()
		sys.mux = dlis.NewMuxListener(sys.srv, dlis.MuxListenerConfig{})
		sys.serving.Add(1)
		// Serve returns nil once close shuts the listener down.
		go func() { defer sys.serving.Done(); _ = sys.mux.Serve(ln) }()
	})
	if err != nil {
		return err
	}
	tr.timed("httpapi.listen", 0, func() {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return
		}
		sys.httpAddr = ln.Addr().String()
		sys.http = &http.Server{Handler: dlis.NewHTTPHandler(sys.srv, 0)}
		sys.serving.Add(1)
		// Serve returns http.ErrServerClosed once close shuts it down.
		go func() { defer sys.serving.Done(); _ = sys.http.Serve(ln) }()
	})
	return err
}

// close shuts the listeners down, drains the server and waits for every
// goroutine it started.
func (sys *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if sys.mux != nil {
		_ = sys.mux.Shutdown(ctx) // best effort: the server drain below still runs
	}
	if sys.http != nil {
		_ = sys.http.Shutdown(ctx)
	}
	sys.serving.Wait()
	_ = sys.local.Close()
}

// run is one benchmark process's state.
type run struct {
	w      *workload
	seed   uint64
	images []*tensor.Tensor
	sys    *system
	rec    *recorder
}

// rng returns a generator for one stream of choices, fixed by the seed.
func (r *run) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, stream))
}

// driveClosedLoop runs offline-batch: each caller sends InferBatch
// requests of batchImages images and waits for each answer. A pass
// visits every config once, starting at a per-caller offset, and a
// caller finishes the pass it is in when time runs out, so every config
// gets the same number of requests.
func driveClosedLoop(r *run, phase int, dur time.Duration) error {
	callers := int(r.w.load[phase])
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		rng := r.rng(uint64(100*phase + c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for time.Now().Before(deadline) {
				for k := range r.w.stacks {
					s := r.w.stacks[(k+c)%len(r.w.stacks)]
					idx := make([]int, batchImages)
					imgs := make([]*tensor.Tensor, batchImages)
					for i := range idx {
						idx[i] = rng.IntN(len(r.images))
						imgs[i] = r.images[idx[i]]
					}
					o := &obs{phase: phase, due: due, sent: time.Now(), transport: "serve", target: s.name, images: idx}
					o.resp, o.err = r.sys.local.InferBatch(context.Background(), s.name, imgs)
					o.done = time.Now()
					r.rec.observe(o)
					due = o.done
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// sloMix draws a request's objective and tenant: a MinAccuracy at one
// of the variants' accuracies (so every variant is someone's cheapest
// choice), priority 1 for three requests in ten, tenants split evenly.
type sloMix struct {
	accs []float64 // variant accuracies, ascending
}

func newSLOMix(w *workload) sloMix {
	var m sloMix
	for _, s := range w.stacks {
		acc, _ := pareto.AccuracyAt("vgg16", s.cfg.Technique, s.cfg.Point)
		m.accs = append(m.accs, acc)
	}
	sort.Float64s(m.accs)
	return m
}

func (m sloMix) draw(rng *rand.Rand) (dlis.SLO, string) {
	weights := []float64{0.45, 0.25, 0.2, 0.1}
	u := rng.Float64()
	tier := len(m.accs) - 1
	for i, wt := range weights[:len(m.accs)] {
		if u < wt {
			tier = i
			break
		}
		u -= wt
	}
	slo := dlis.SLO{MinAccuracy: m.accs[tier]}
	if tier == 0 {
		slo.MinAccuracy = 0
	}
	if rng.Float64() < 0.3 {
		slo.Priority = 1
	}
	tenant := "tenant-a"
	if rng.IntN(2) == 1 {
		tenant = "tenant-b"
	}
	return slo, tenant
}

// pendingTable matches session completions to their requests. A
// completion can arrive before Send has returned its ID, so it waits in
// early until the sender claims it.
type pendingTable struct {
	mu    sync.Mutex
	byID  map[uint64]*obs
	early map[uint64]early
	wg    sync.WaitGroup
}

type early struct {
	res  dlis.SessionResult
	done time.Time
}

func (p *pendingTable) sent(id uint64, o *obs, rec *recorder) {
	p.mu.Lock()
	e, ok := p.early[id]
	if ok {
		delete(p.early, id)
	} else {
		p.byID[id] = o
	}
	p.mu.Unlock()
	if ok {
		p.finish(o, e.res, e.done, rec)
	}
}

func (p *pendingTable) received(res dlis.SessionResult, done time.Time, rec *recorder) {
	p.mu.Lock()
	o, ok := p.byID[res.ID]
	if ok {
		delete(p.byID, res.ID)
	} else {
		p.early[res.ID] = early{res: res, done: done}
	}
	p.mu.Unlock()
	if ok {
		p.finish(o, res, done, rec)
	}
}

func (p *pendingTable) finish(o *obs, res dlis.SessionResult, done time.Time, rec *recorder) {
	o.resp, o.err, o.done = res.Resp, res.Err, done
	if o.err == nil && o.resp != nil {
		o.err = o.resp.Err()
	}
	rec.observe(o)
	p.wg.Done()
}

// driveWire runs wire-tenants: a Poisson stream pipelined over one DLW2
// session plus a fixed-rate stream over one keep-alive HTTP connection,
// both to the SLO-routed endpoint, with a seeded SLO and tenant mix.
func driveWire(r *run, phase int, dur time.Duration) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mux := dlis.NewMuxClient(r.sys.muxAddr)
	defer mux.Close()
	sess, err := mux.Session(ctx)
	if err != nil {
		return err
	}
	defer sess.Close()
	httpc := dlis.NewHTTPClient("http://" + r.sys.httpAddr)
	defer httpc.Close()

	mix := newSLOMix(r.w)
	pt := &pendingTable{byID: map[uint64]*obs{}, early: map[uint64]early{}}
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			res, err := sess.Recv()
			if err != nil {
				return
			}
			pt.received(res, time.Now(), r.rec)
		}
	}()

	var httpWG sync.WaitGroup
	httpWG.Add(1)
	go func() {
		defer httpWG.Done()
		rng := r.rng(uint64(1000 + phase))
		openLoop(time.Now(), fixedSchedule(r.w.httpRate, dur), func(_ int, due time.Time) {
			slo, tenant := mix.draw(rng)
			idx := rng.IntN(len(r.images))
			o := &obs{phase: phase, due: due, sent: time.Now(), transport: "httpapi", tenant: tenant,
				target: endpointName, images: []int{idx}}
			o.resp, o.err = httpc.InferSync(ctx, dlis.Request{Target: endpointName, SLO: slo, Tenant: tenant,
				Images: []*tensor.Tensor{r.images[idx]}})
			o.done = time.Now()
			r.rec.observe(o)
		})
	}()

	rng := r.rng(uint64(2000 + phase))
	sched := poissonSchedule(r.rng(uint64(3000+phase)), r.w.load[phase]-r.w.httpRate, dur)
	openLoop(time.Now(), sched, func(_ int, due time.Time) {
		slo, tenant := mix.draw(rng)
		idx := rng.IntN(len(r.images))
		o := &obs{phase: phase, due: due, sent: time.Now(), transport: "muxwire", tenant: tenant,
			target: endpointName, images: []int{idx}}
		pt.wg.Add(1)
		id, err := sess.Send(dlis.Request{Target: endpointName, SLO: slo, Tenant: tenant,
			Images: []*tensor.Tensor{r.images[idx]}})
		if err != nil {
			pt.finish(o, dlis.SessionResult{Err: err}, time.Now(), r.rec)
			return
		}
		pt.sent(id, o, r.rec)
	})
	httpWG.Wait()

	drained := make(chan struct{})
	go func() { pt.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		return errors.New("wire-tenants: responses still outstanding 30s after the last send")
	}
	cancel()
	sess.Close()
	<-recvDone
	return nil
}
