package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"howsim/internal/runconfig"
	"howsim/internal/service"
)

// The howsimd_mix workload: two clients in a closed loop against an
// in-process howsimd with the service's default configuration.
const (
	mixClients   = 2                      // clients, each with its own connection
	sloLimit     = 500 * time.Millisecond // a 200 answered within this meets the SLO
	requestLimit = 10 * time.Second       // client timeout: the hang guard of one request
	sampleHot    = 4                      // hot keys re-run directly after the window
	sampleFresh  = 8                      // fresh keys re-run directly after the window
	probeHits    = 200                    // sequential warm hits each howsimd probe times

	// A run's requests are mixBlocks blocks, each carrying one fresh key:
	// one per task × architecture × variant (8 × 3 × 4). The share of
	// fresh keys is small because every cluster simulation leaks its
	// model (WORKLOADS.md): at one in 50, a closed loop ran some 4000
	// misses in 30 s and ended with 3 GB of heap.
	mixBlocks = 96
	// mixRate sizes the blocks: the requests per second the closed loop
	// completes on a 2-core host, so that a run lasts about the requested
	// seconds.
	mixRate = 20000
	// mixPasses is how many passes the blocks are split into; the timings
	// are medians over passes.
	mixPasses = 16
	// A traced run makes smaller blocks, so that every request's spans
	// are kept.
	tracedBlock = 150
)

var freshDisks = []int{8, 16, 32}

// hotSet is the 24 hot keys: every task on every architecture at 16
// disks, scale 0.02.
func hotSet() []runconfig.Request {
	var out []runconfig.Request
	for _, g := range gridConfigs() {
		if g.Disks == 16 {
			out = append(out, runconfig.Request{Task: g.Task, Arch: g.Arch, Disks: 16, Scale: 0.02})
		}
	}
	return out
}

// mixKey is a key the mix requests.
type mixKey struct {
	req  runconfig.Request
	body []byte // the request as sent
	kind string // hot, fault, breakdown or dup
}

// freshVariants is what a fresh key asks for beyond a plain run: a
// seeded fault plan, a breakdown, or nothing but sent twice back to back
// so that the second request joins the first one's run. Dup is listed
// twice: half the fresh keys are dups.
var freshVariants = []string{"fault", "breakdown", "dup", "dup"}

// freshScale is the dataset scale of every fresh key. Each fresh key adds
// its own step of freshScaleStep, so it is never in the cache, while its
// dataset stays the same size to within a few records.
const (
	freshScale     = 0.0025
	freshScaleStep = 1e-9
)

// mixSchedule derives a run's requests from its seed: the keys, the hot
// set first, and mixBlocks blocks of `block` requests, each request an
// index into the keys. In each block one seeded position is a fresh key;
// the others draw a hot key with Zipf weights, the i-th hot key having
// weight 1/(i+1). The fresh keys are one round: every task ×
// architecture once with each variant, in a seeded order, the disk count
// fixed by the config and the variant. So every run holds the same fresh
// work and the same hot-key weights: the seed varies the order of the
// requests and the fault seeds, not what the requests cost.
func mixSchedule(seed uint64, block int) ([]mixKey, [][]int32, error) {
	hot := hotSet()
	n := len(hot)
	rank := newRNG(seed, streamKeys)
	fresh := newRNG(seed, streamFresh)

	keys := make([]mixKey, 0, n+mixBlocks)
	for _, req := range hot {
		keys = append(keys, mixKey{req: req, kind: "hot"})
	}
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	blocks := make([][]int32, mixBlocks)
	for blk, f := range fresh.perm(mixBlocks) { // f is config*len(freshVariants)+variant
		freshAt := fresh.intn(block)
		for j := 0; j < block; j++ {
			if j != freshAt {
				blocks[blk] = append(blocks[blk], int32(min(sort.SearchFloat64s(cum, rank.float()*total), n-1)))
				continue
			}
			c, v := f/len(freshVariants), f%len(freshVariants)
			k := mixKey{kind: freshVariants[v], req: runconfig.Request{Task: hot[c].Task, Arch: hot[c].Arch,
				Disks: freshDisks[(c+v)%len(freshDisks)], Scale: freshScale + float64(blk+1)*freshScaleStep}}
			switch k.kind {
			case "fault":
				k.req.Faults = fmt.Sprintf("seed=%d,media=0.003,slow=0.003", fresh.intn(1<<20))
			case "breakdown":
				k.req.Breakdown = true
			}
			blocks[blk] = append(blocks[blk], int32(len(keys)))
			if k.kind == "dup" {
				blocks[blk] = append(blocks[blk], int32(len(keys)))
			}
			keys = append(keys, k)
		}
	}
	for i := range keys {
		body, err := json.Marshal(keys[i].req)
		if err != nil {
			return nil, nil, err
		}
		keys[i].body = body
	}
	return keys, blocks, nil
}

// howsimd is an in-process howsimd: the service's handler served over
// loopback HTTP, and a client limited to mixClients connections.
type howsimd struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startHowsimd() (*howsimd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	d := &howsimd{
		srv:    service.New(service.Config{}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/simulate",
		client: &http.Client{Timeout: requestLimit, Transport: &http.Transport{
			MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients}},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener and its connections, then drains the service.
func (d *howsimd) close() {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// mixObs is one answered (or failed) request.
type mixObs struct {
	status int
	cache  string
	body   []byte
	err    error
}

func (d *howsimd) post(body []byte) mixObs {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return mixObs{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return mixObs{status: resp.StatusCode, cache: resp.Header.Get("X-Howsim-Cache"), body: b, err: err}
}

// failure says why an answer is not a served simulation, or is nil.
func (o mixObs) failure() error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	return nil
}

// closedLoop sends requests 0..n-1 in order from `clients` concurrent
// clients, each sending its next request as soon as its previous one
// completes. It returns each request's latency, how long its client took
// from its previous completion to this send, and the wall time until the
// last completion.
//
// The loop is closed because it keeps both cores busy. An open loop at a
// fixed 200 req/s left them idle between requests, and most of a
// sub-millisecond hit's latency was then the host waking an idle virtual
// CPU: 0.28 to 0.45 ms against 0.07 ms back to back, moving by a third
// between runs.
func closedLoop(n, clients int, send func(i int)) (lat, gap []time.Duration, wall time.Duration) {
	lat = make([]time.Duration, n)
	gap = make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := start
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				t0 := time.Now()
				gap[i] = t0.Sub(prev)
				send(i)
				prev = time.Now()
				lat[i] = prev.Sub(t0)
			}
		}()
	}
	wg.Wait()
	return lat, gap, time.Since(start)
}

// runMix drives howsimd_mix. Set-up starts the service and warms the
// hot keys; their bodies are the reference every later hit must match.
// The window is a fixed number of passes, each over the same mix, so
// every run does the same work and its timings are medians over passes.
// Each pass's answers are checked as it ends, and after the window a
// seeded sample of keys is re-run directly through tasks.RunCtx.
func (b *bench) runMix() error {
	block := max(1, int(math.Round(float64(b.seconds)*mixRate/mixBlocks)))
	if b.traced {
		block = tracedBlock
	}
	keys, blocks, err := mixSchedule(b.seed, block)
	if err != nil {
		return err
	}
	const n = mixPasses
	passes := make([][]int32, n)
	for i, blk := range blocks {
		passes[i*n/mixBlocks] = append(passes[i*n/mixBlocks], blk...)
	}
	hot := hotSet()
	b.addScale(hot[0].Scale)
	b.addScale(freshScale)

	reps := setupReps
	if b.traced {
		reps = 1
	}
	var d *howsimd
	var warm [][]byte
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if d != nil {
			d.close()
		}
		if d, err = startHowsimd(); err != nil {
			return err
		}
		warm = b.warmUp(d, hot, warm)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()

	var prof *cpuProfile
	var l *layers
	if b.traced {
		if prof, err = startProfile(); err != nil {
			return err
		}
		l = newLayers()
	}
	// Every answer must be a 200 whose body equals its key's reference:
	// a hot key's warm-up body, a fresh key's first answer.
	ref := make([][]byte, len(keys))
	copy(ref, warm)
	lats := make([][]float64, n)
	rates := make([]float64, n)
	var misses, gaps []float64
	var cpu, wallAll time.Duration
	sloOK, sent := 0, 0
	runtime.GC()
	alloc0 := totalAlloc()
	for p, sched := range passes {
		obs := make([]mixObs, len(sched))
		cpu0, _ := rusage()
		lat, gap, wall := closedLoop(len(sched), mixClients, func(i int) {
			id := b.tr.newOp()
			root := b.tr.begin(id, -1, "request", keys[sched[i]].kind)
			s := b.tr.begin(id, root, "http", "")
			obs[i] = d.post(keys[sched[i]].body)
			b.tr.end(s)
			b.tr.end(root)
		})
		cpu1, _ := rusage()
		cpu, wallAll = cpu+cpu1-cpu0, wallAll+wall

		passOK := 0
		for i, k := range sched {
			o := obs[i]
			err := o.failure()
			if err == nil {
				if ref[k] != nil {
					err = sameBody(o.body, ref[k])
				} else {
					ref[k] = o.body
				}
			}
			lats[p] = append(lats[p], ms(lat[i]))
			gaps = append(gaps, ms(gap[i]))
			if o.cache == "miss" {
				misses = append(misses, ms(lat[i]))
			}
			what := "" // formatted only on failure: the check runs inside the measured window
			if err != nil {
				what = fmt.Sprintf("request %d of pass %d (%s, %s)", i, p, keys[k].kind, keys[k].body)
			}
			if b.check(what, err) {
				passOK++
				if lat[i] <= sloLimit {
					sloOK++
				}
			}
		}
		rates[p] = float64(passOK) / wall.Seconds()
		sent += len(sched)
	}
	allocs := totalAlloc() - alloc0
	live := liveHeapMB()
	b.lateP99 = percentile(gaps, 99)
	if l != nil {
		l.cpu, l.wall = cpu, wallAll
		l.late = gaps
		l.countService(d.srv.Metrics())
	}

	// Outside the window: re-run a seeded sample of keys straight through
	// tasks.RunCtx. A traced run re-runs every hot key and three times the
	// fresh sample, each with the probe off and then on.
	nHot, nFresh := sampleHot, sampleFresh
	if b.traced {
		nHot, nFresh = len(hot), 3*sampleFresh
	}
	pick := newRNG(b.seed, streamSample)
	sample := pick.perm(len(hot))[:nHot]
	var answered []int // fresh keys with a reference answer
	for k := len(hot); k < len(keys); k++ {
		if ref[k] != nil {
			answered = append(answered, k)
		}
	}
	for _, i := range pick.perm(len(answered))[:min(nFresh, len(answered))] {
		sample = append(sample, answered[i])
	}
	for _, k := range sample {
		untraced, good := b.direct(keys[k].req, ref[k], false)
		if !b.traced || !good {
			continue
		}
		if probed, good := b.direct(keys[k].req, ref[k], true); good {
			l.untraced += untraced.wall
			l.addProbed(probed)
		}
	}

	if b.traced {
		l.eventWall = l.untraced
		b.serviceProbe(d, hot[0], l)
		return b.finishTrace(prof, l)
	}
	b.endToEnd(setups, lats, rates, median(misses),
		ratio(float64(sloOK), float64(sent)), allocs, live)
	return nil
}

// warmUp requests every hot key once and returns the bodies. When ref
// holds an earlier warm-up's bodies, each body must equal its reference.
func (b *bench) warmUp(d *howsimd, hot []runconfig.Request, ref [][]byte) [][]byte {
	bodies := make([][]byte, len(hot))
	for i, req := range hot {
		body, err := json.Marshal(req)
		var o mixObs
		if err == nil {
			o = d.post(body)
			err = o.failure()
		}
		if err == nil && ref != nil {
			err = sameBody(o.body, ref[i])
		}
		b.check(fmt.Sprintf("warm-up of hot key %d", i), err)
		bodies[i] = o.body
	}
	return bodies
}

// direct re-runs one key straight through tasks.RunCtx and checks that
// the body howsimd served for it equals the direct run rendered the way
// the service renders it.
func (b *bench) direct(req runconfig.Request, want []byte, probed bool) (run, bool) {
	id := b.tr.newOp()
	root := b.tr.begin(id, -1, "op", "direct")
	defer b.tr.end(root)
	r, err := b.simulate(id, root, req, probed)
	if err == nil {
		s := b.tr.begin(id, root, "digest", "")
		var body []byte
		if body, err = renderBody(r); err == nil {
			err = sameBody(want, body)
		}
		b.tr.end(s)
	}
	return r, b.check(fmt.Sprintf("direct run of %+v", req), err)
}

// serviceProbe times howsimd's warm-hit path for one key two ways: the
// handler called in process, with no socket, and a loopback HTTP round
// trip. Each figure is the median of probeHits sequential hits.
func (b *bench) serviceProbe(d *howsimd, req runconfig.Request, l *layers) {
	body, err := json.Marshal(req)
	if !b.check("howsimd probe request", err) {
		return
	}
	first := d.post(body)
	if !b.check("howsimd probe warm-up", first.failure()) {
		return
	}
	hitErr := func(status int, cache string, got []byte) error {
		if status != http.StatusOK || cache != "hit" {
			return fmt.Errorf("status %d, cache %q; want a 200 hit", status, cache)
		}
		return sameBody(got, first.body)
	}
	h := d.srv.Handler()
	var direct, loop []float64
	for i := 0; i < probeHits; i++ {
		id := b.tr.newOp()
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		s := b.tr.begin(id, -1, "handler", "")
		t0 := time.Now()
		h.ServeHTTP(rec, hr)
		direct = append(direct, us(time.Since(t0)))
		b.tr.end(s)
		b.check("howsimd handler hit", hitErr(rec.Code, rec.Header().Get("X-Howsim-Cache"), rec.Body.Bytes()))

		s = b.tr.begin(id, -1, "http", "")
		t0 = time.Now()
		o := d.post(body)
		loop = append(loop, us(time.Since(t0)))
		b.tr.end(s)
		err := o.failure()
		if err == nil {
			err = hitErr(o.status, o.cache, o.body)
		}
		b.check("howsimd loopback hit", err)
	}
	l.handlerUS, l.loopbackUS = median(direct), median(loop)
}
