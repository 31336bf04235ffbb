package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/scenario"
	"daredevil/internal/sim"
	"daredevil/internal/walltime"
)

// The serve-mix load: seeded Poisson arrivals at serveRate requests per
// second, sent open loop to a ddserve daemon over serveConns connections
// (nproc on the baseline machine). A request submits its job without
// waiting and then polls for the result every pollEvery, so jobs queue
// inside the daemon, where cache hits wait behind cell runs.
//
// No ddserve traffic has been recorded, so the rate, the shares of the mix
// below and the repeat distance are assumptions, chosen so that the two
// workers stay mostly idle and serve-side cost is not buried under
// simulation. The documents come from the shipped scenarios.
const (
	serveRate  = 40
	serveConns = 2
	pollEvery  = time.Millisecond
)

// serveMix is the serve-mix run's shape.
type serveMix struct {
	warmup time.Duration // requests scheduled before this are untimed
	// setups is how many times the daemon is started to time set-up. The
	// first start, which pages the binary in, is untimed; the last
	// instance takes the load.
	setups int
}

var defaultServeMix = serveMix{warmup: 3 * time.Second, setups: 25}

// lateLimit rejects a run whose load generator released its tail of
// requests later than this after their scheduled instants: its latencies
// would describe the generator, not the daemon.
const lateLimit = 10 * time.Millisecond

// request is one scheduled POST /v1/sweeps and the GETs of its result.
type request struct {
	at   time.Duration // scheduled send, from the start of the run
	body []byte
	// repeatOf is the index of an earlier request whose body this one
	// repeats byte for byte (a cache hit), or -1 for a fresh document.
	repeatOf int
}

// docKind is what a request asks for.
type docKind int

const (
	// The db and etl tenants of examples/scenarios/mixed.json, without the
	// etl outliers and the open-loop webapp, 50 + 200 ms, random stack.
	singleCell docKind = iota
	stackSweep         // the same document over three stacks
	agedCell           // examples/scenarios/aged.json, 150 + 300 ms, random stack
	repeatDoc          // a byte-identical earlier request: a cache hit
)

// mixBlock is one block of requests in the mix's exact shares: 45% single
// cells, 20% sweeps, 5% aged cells, 30% repeats. Each block's order is drawn
// from the seed, so every seed sends the same mix and runs differ only in
// order, timing and cell seeds.
var mixBlock = [20]docKind{
	singleCell, singleCell, singleCell, singleCell, singleCell, singleCell, singleCell, singleCell, singleCell,
	stackSweep, stackSweep, stackSweep, stackSweep,
	agedCell,
	repeatDoc, repeatDoc, repeatDoc, repeatDoc, repeatDoc, repeatDoc,
}

// A repeat reaches back 8 to 64 requests, so its original has had time to
// finish and is still in the daemon's LRU cache.
const (
	repeatNear = 8
	repeatFar  = 64
)

// schedule draws every request of a run of length total from the seed.
func (m serveMix) schedule(seed uint64, total time.Duration) ([]request, error) {
	rng := sim.NewRand(seed)
	var reqs []request
	var order []int
	var at time.Duration
	for {
		// Exponential gaps: 1-Float64() is in (0, 1], so the log is finite.
		at += time.Duration(-math.Log(1-rng.Float64()) * float64(time.Second) / serveRate)
		if at >= total {
			return reqs, nil
		}
		i := len(reqs)
		if i%len(mixBlock) == 0 {
			order = rng.Perm(len(mixBlock))
		}
		kind := mixBlock[order[i%len(mixBlock)]]
		rq := request{at: at, repeatOf: -1}
		if kind == repeatDoc {
			var candidates []int
			for j := max(0, i-repeatFar); j <= i-repeatNear; j++ {
				if reqs[j].repeatOf < 0 {
					candidates = append(candidates, j)
				}
			}
			if len(candidates) > 0 {
				rq.repeatOf = candidates[rng.Intn(len(candidates))]
				rq.body = reqs[rq.repeatOf].body
				reqs = append(reqs, rq)
				continue
			}
			kind = singleCell // too early to repeat
		}
		sc := serveDoc(kind, harness.AllKinds[rng.Intn(len(harness.AllKinds))], seed*1_000_003+uint64(i))
		body, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		rq.body = body
		reqs = append(reqs, rq)
	}
}

// serveDoc builds a fresh document of the given kind.
func serveDoc(kind docKind, stack harness.StackKind, seed uint64) scenario.Scenario {
	if kind == agedCell {
		return scenario.Scenario{
			Machine: "svm", Cores: 4, Stack: string(stack), WarmupMs: 150, MeasureMs: 300, Seed: seed,
			FTL: true, OPPct: 15, Jobs: cellAged.base.Jobs,
		}
	}
	sc := scenario.Scenario{
		Machine: "svm", Cores: 4, WarmupMs: 50, MeasureMs: 200, Seed: seed,
		Jobs: []scenario.Job{
			{Name: "db", Class: "L", Count: 4},
			{Name: "etl", Class: "T", Count: 12},
		},
	}
	if kind == stackSweep {
		sc.Sweep = []scenario.Axis{{Param: "stack", Stacks: []string{"vanilla", "blk-switch", "daredevil"}}}
	} else {
		sc.Stack = string(stack)
	}
	return sc
}

// outcome is what the client saw for one request.
type outcome struct {
	latency time.Duration // scheduled send → last result byte
	// post is the submission's round trip; result runs from its answer to
	// the result's last byte.
	post, result time.Duration
	polls        int // GETs of the result, the last one answered
	body         []byte
	err          error
}

// drainLimit bounds how long a session may run past its last scheduled
// send; requests still unanswered then fail, so a hung daemon cannot keep
// the run from ending.
const drainLimit = 60 * time.Second

// loadgen sends reqs open loop: request i is released at reqs[i].at after
// loadgen starts, whether or not earlier requests have completed. Every
// request's POST and GETs share serveConns connections. Latency runs from
// the scheduled instant, so a stall is charged to every request behind it,
// whether it waits in the daemon's queue or for a connection. late[i] is
// how far the generator itself overslept request i's instant.
func loadgen(url string, reqs []request, spans *spanLog) (outs []outcome, late []time.Duration) {
	var last time.Duration
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].at
	}
	ctx, cancel := context.WithTimeout(context.Background(), last+drainLimit)
	defer cancel()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	defer client.CloseIdleConnections()
	outs = make([]outcome, len(reqs))
	late = make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	sw := walltime.Start()
	for i, rq := range reqs {
		sleepUntil(sw, rq.at)
		late[i] = sw.Elapsed() - rq.at
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = send(ctx, client, url, rq, sw, i, spans)
		}()
	}
	wg.Wait()
	return outs, late
}

// send submits one job with POST /v1/sweeps and GETs its result every
// pollEvery until the daemon stops answering 409 (not ready).
func send(ctx context.Context, client *http.Client, url string, rq request, sw walltime.Stopwatch, id int, spans *spanLog) (o outcome) {
	t0 := spans.now()
	step := walltime.Start()
	status, doc, err := roundTrip(ctx, client, http.MethodPost, url+"/v1/sweeps", rq.body)
	o.post = step.Elapsed()
	spans.add("http", "POST /v1/sweeps", id, id, t0)
	if err != nil || status != http.StatusAccepted {
		o.err = fmt.Errorf("request %d: POST: status %d: %v %s", id, status, err, bytes.TrimSpace(doc))
		return o
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(doc, &st); err != nil || st.ID == "" {
		o.err = fmt.Errorf("request %d: POST answered %q", id, bytes.TrimSpace(doc))
		return o
	}
	t1 := spans.now()
	step = walltime.Start()
	for {
		o.polls++
		status, o.body, err = roundTrip(ctx, client, http.MethodGet, url+"/v1/jobs/"+st.ID+"/result", nil)
		if err != nil || status != http.StatusConflict {
			break
		}
		sleepUntil(step, time.Duration(o.polls)*pollEvery)
	}
	o.result = step.Elapsed()
	o.latency = sw.Elapsed() - rq.at
	spans.add("http", "GET /v1/jobs/{id}/result", id, id, t1)
	if err != nil || status != http.StatusOK {
		o.err = fmt.Errorf("request %d: GET result: status %d: %v", id, status, err)
	}
	return o
}

func roundTrip(ctx context.Context, client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// daemon is a running ddserve the load is aimed at.
type daemon struct {
	url string
	// pid is the daemon's process, or 0 when it runs inside this process.
	pid  int
	stop func() error
}

// startFunc starts a daemon and returns once it answers /healthz.
type startFunc func() (*daemon, error)

// spawnDaemon runs the ddserve binary as a child on a free loopback port
// with two workers.
func spawnDaemon(bin string) startFunc {
	return func() (*daemon, error) {
		ctx, cancel := context.WithCancel(context.Background())
		cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-workers", "2")
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 30 * time.Second
		ready := make(chan string, 1)
		cmd.Stdout = &firstLine{ready: ready}
		if err := cmd.Start(); err != nil {
			cancel()
			return nil, fmt.Errorf("starting ddserve: %w", err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		stop := func() error {
			cancel()
			err := <-exited
			// A daemon stopped right after its banner can take the SIGTERM
			// before it installs its handler; dying of it is still a stop.
			if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); ok &&
				(ws.ExitStatus() == 0 || ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
				return nil
			}
			return fmt.Errorf("ddserve: %v", err)
		}
		wait, waitCancel := context.WithTimeout(ctx, 30*time.Second)
		defer waitCancel()
		select {
		case line := <-ready:
			// "ddserve: listening on 127.0.0.1:PORT (workers=2 ...)"
			fields := strings.Fields(line)
			if len(fields) < 4 || fields[1] != "listening" {
				_ = stop()
				return nil, fmt.Errorf("unexpected ddserve banner %q", line)
			}
			d := &daemon{url: "http://" + fields[3], pid: cmd.Process.Pid, stop: stop}
			if err := awaitHealthy(wait, d.url); err != nil {
				_ = stop()
				return nil, err
			}
			return d, nil
		case err := <-exited:
			cancel()
			return nil, fmt.Errorf("ddserve exited before listening: %v", err)
		case <-wait.Done():
			_ = stop()
			return nil, errors.New("ddserve did not start within 30s")
		}
	}
}

// firstLine hands the first line written to it to ready and discards the
// rest.
type firstLine struct {
	buf   []byte
	ready chan<- string
	sent  bool
}

func (f *firstLine) Write(p []byte) (int, error) {
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.ready <- string(f.buf[:i])
			f.sent = true
		}
	}
	return len(p), nil
}

// oneShot is the client for requests outside the load: it keeps no idle
// connection, so the load runs on its own connections only.
var oneShot = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// awaitHealthy polls /healthz every millisecond until it answers 200.
func awaitHealthy(ctx context.Context, url string) error {
	sw := walltime.Start()
	for attempt := 1; ; attempt++ {
		status, _, err := roundTrip(ctx, oneShot, http.MethodGet, url+"/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("ddserve at %s never became healthy: %v", url, err)
		}
		sleepUntil(sw, time.Duration(attempt)*time.Millisecond)
	}
}

// serveMetrics is the part of GET /metrics.json the run reports.
type serveMetrics struct {
	CellsRun     float64 `json:"cellsRun"`
	JobsRejected float64 `json:"jobsRejected"`
	CacheHitRate float64 `json:"cacheHitRate"`
}

func scrape(url string) (serveMetrics, error) {
	var m serveMetrics
	status, body, err := roundTrip(context.Background(), oneShot, http.MethodGet, url+"/metrics.json", nil)
	if err != nil || status != http.StatusOK {
		return m, fmt.Errorf("scraping /metrics.json: status %d: %v", status, err)
	}
	return m, json.Unmarshal(body, &m)
}

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat,
// in clock ticks of 1/100 s (USER_HZ on Linux).
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / 100, nil
}

// serveCalPoints is how many calibration points serve-mix takes before its
// daemon starts; the load takes one after each of its stretches.
const serveCalPoints = 4

func runServe(r *run, m serveMix, start startFunc) error {
	for range serveCalPoints {
		r.cal.calibrate()
	}
	var setups []float64
	var d *daemon
	for i := 0; i < m.setups; i++ {
		sw := walltime.Start()
		inst, err := start()
		if err != nil {
			return err
		}
		if i > 0 {
			setups = append(setups, sw.Elapsed().Seconds())
		}
		if i < m.setups-1 {
			if err := inst.stop(); err != nil {
				return err
			}
			continue
		}
		d = inst
	}
	err := serveLoad(r, m, d)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	r.set("setup_s", median(setups))
	return err
}

// serveSegment is how long one stretch of the untraced load lasts. After
// each, the generator waits for every answer and takes a calibration point
// while the daemon is idle, so the walks follow the machine's speed through
// the load without taking CPU or cache from the daemon.
const serveSegment = 3 * time.Second

// segmentedLoad sends reqs, scheduled from base on, in serveSegment
// stretches, each open loop from its own start.
func (r *run) segmentedLoad(url string, reqs []request, base time.Duration) (outs []outcome, late []time.Duration) {
	for i := 0; i < len(reqs); {
		start := base + (reqs[i].at-base)/serveSegment*serveSegment
		var seg []request
		for ; i < len(reqs) && reqs[i].at < start+serveSegment; i++ {
			rq := reqs[i]
			rq.at -= start
			seg = append(seg, rq)
		}
		o, l := loadgen(url, seg, nil)
		outs, late = append(outs, o...), append(late, l...)
		r.cal.calibrate()
	}
	return outs, late
}

// serveLoad drives one daemon: an untimed warm-up and the timed phase,
// then, on traced runs, a traced session in one stretch.
func serveLoad(r *run, m serveMix, d *daemon) error {
	untracedEnd := m.warmup + r.untracedPhase()
	reqs, err := m.schedule(r.seed, m.warmup+r.seconds)
	if err != nil {
		return err
	}
	split := sort.Search(len(reqs), func(i int) bool { return reqs[i].at >= untracedEnd })
	warm := sort.Search(split, func(i int) bool { return reqs[i].at >= m.warmup })
	pid := "self"
	if d.pid != 0 {
		pid = strconv.Itoa(d.pid)
	}
	outs, late := r.segmentedLoad(d.url, reqs[:warm], 0)
	rss := sampleRSS(pid)
	timedOuts, timedLate := r.segmentedLoad(d.url, reqs[warm:split], m.warmup)
	r.set("rss_mb", rss.stop())
	outs, late = append(outs, timedOuts...), append(late, timedLate...)

	var tracedOuts []outcome
	var tracedLate []time.Duration
	var cpu0, cpu1 float64
	var tracedWall time.Duration
	if r.traced {
		second := append([]request(nil), reqs[split:]...)
		for i := range second {
			second[i].at -= untracedEnd
		}
		if d.pid != 0 {
			cpu0, _ = cpuSeconds(d.pid)
		}
		sw := walltime.Start()
		if err := r.profiled(func() {
			tracedOuts, tracedLate = loadgen(d.url, second, r.spans)
		}); err != nil {
			return err
		}
		tracedWall = sw.Elapsed()
		if d.pid != 0 {
			cpu1, _ = cpuSeconds(d.pid)
		}
	}
	all := append(append([]outcome(nil), outs...), tracedOuts...)
	allLate := append(append([]time.Duration(nil), late...), tracedLate...)

	// Correctness: every request answered 200, every repeat returned its
	// original's bytes, and the warm-up's fresh results match the pins.
	var warmFresh []byte
	for i, o := range all {
		r.attempted++
		if o.err != nil {
			r.fail("%v", o.err)
			continue
		}
		if j := reqs[i].repeatOf; j >= 0 && all[j].err == nil && !bytes.Equal(o.body, all[j].body) {
			r.fail("request %d: repeat of request %d returned different bytes", i, j)
		}
		if reqs[i].repeatOf < 0 && reqs[i].at < m.warmup {
			warmFresh = append(warmFresh, o.body...)
		}
	}
	r.prints["warmup-fresh"] = fingerprint(warmFresh)
	var lateMs []float64
	for i, l := range allLate {
		if reqs[i].at >= m.warmup {
			lateMs = append(lateMs, ms(l))
		}
	}
	if lt, pct := tail(lateMs); lt > ms(lateLimit) {
		r.fail("load generator ran late: p%.1f lateness %.2f ms exceeds %v", pct, lt, lateLimit)
	}

	var lat []float64
	for i, o := range outs {
		if reqs[i].at >= m.warmup && o.err == nil {
			lat = append(lat, ms(o.latency))
		}
	}
	r.set("wall_p50_ms", median(lat))
	r.note("an operation is one request; p50 over %d timed requests at %d/s on %d connections; setup is the median of %d daemon starts after an untimed one",
		len(lat), serveRate, serveConns, m.setups-1)
	if !r.traced {
		return nil
	}

	var post, result, hit, miss, tracedLat, lateT []float64
	var polls float64
	for i, o := range tracedOuts {
		if o.err != nil {
			continue
		}
		post = append(post, ms(o.post))
		result = append(result, ms(o.result))
		polls += float64(o.polls)
		tracedLat = append(tracedLat, ms(o.latency))
		if reqs[split+i].repeatOf >= 0 {
			hit = append(hit, ms(o.latency))
		} else {
			miss = append(miss, ms(o.latency))
		}
		lateT = append(lateT, ms(tracedLate[i]))
	}
	reqTail, pct := tail(tracedLat)
	postTail, _ := tail(post)
	missTail, _ := tail(miss)
	lateTail, _ := tail(lateT)
	r.set("serve.req_ms_tail", reqTail)
	r.note("the traced session's tails are p%.1f of its %d requests", pct, len(tracedLat))
	r.set("serve.post_ms_p50", median(post))
	r.set("serve.post_ms_tail", postTail)
	r.set("serve.result_ms_p50", median(result))
	r.set("serve.polls_per_req", ratio(polls, float64(len(result))))
	r.set("serve.hit_ms_p50", median(hit))
	r.set("serve.miss_ms_p50", median(miss))
	r.set("serve.miss_ms_tail", missTail)
	r.set("loadgen.late_tail_ms", lateTail)
	if d.pid != 0 {
		r.set("serve.cpu_util", ratio(cpu1-cpu0, tracedWall.Seconds()*float64(runtime.NumCPU())))
	}
	sm, err := scrape(d.url)
	if err != nil {
		return err
	}
	r.set("serve.cache_hit_rate", sm.CacheHitRate)
	r.set("serve.cells_run", sm.CellsRun)
	r.set("serve.jobs_rejected", sm.JobsRejected)
	return r.finishTrace(median(lat), median(tracedLat))
}
