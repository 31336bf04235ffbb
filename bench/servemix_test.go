package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fifoDaemon fakes ddserve's job API with one worker: POST /v1/sweeps
// queues a job and answers 202 at once, and GET /v1/jobs/{id}/result
// answers 409 until every job before it and the job itself have run. The
// first job takes stall; the others take no time.
type fifoDaemon struct {
	stall time.Duration
	mu    sync.Mutex
	start time.Time
	done  []time.Duration // completion instant of each job, from start
	conns map[string]bool // remote addresses of the connections seen
}

func (d *fifoDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.conns[r.RemoteAddr] = true
	now := time.Since(d.start)
	if r.Method == http.MethodPost {
		end := now
		if n := len(d.done); n > 0 {
			end = max(end, d.done[n-1])
		} else {
			end += d.stall
		}
		d.done = append(d.done, end)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j%d"}`, len(d.done)-1)
		return
	}
	var n int
	if _, err := fmt.Sscanf(r.URL.Path, "/v1/jobs/j%d/result", &n); err != nil || n >= len(d.done) {
		http.NotFound(w, r)
		return
	}
	if now < d.done[n] {
		w.WriteHeader(http.StatusConflict)
		return
	}
	fmt.Fprint(w, "result")
}

// A stalled daemon must show its stall on the requests scheduled during
// it, not only on the request it stalled: latency runs from the scheduled
// send, the jobs behind the stalled one wait in the daemon's queue, and
// the generator keeps releasing requests on time over at most serveConns
// connections.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	fake := &fifoDaemon{stall: stall, start: time.Now(), conns: map[string]bool{}}
	ts := httptest.NewServer(fake)
	defer ts.Close()

	const gap = 25 * time.Millisecond
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = request{at: time.Duration(i) * gap, body: []byte("{}"), repeatOf: -1}
	}
	outs, late := loadgen(ts.URL, reqs, nil)
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if !bytes.Equal(o.body, []byte("result")) {
			t.Fatalf("request %d: body %q", i, o.body)
		}
		if late[i] > 50*time.Millisecond {
			t.Errorf("request %d released %v late; the generator must not wait for the stalled daemon", i, late[i])
		}
		// Requests due during the stall waited for it to end, polling.
		if at := reqs[i].at; at < stall {
			if floor := stall - at - 10*time.Millisecond; o.latency < floor {
				t.Errorf("request %d due at %v: latency %v, want at least %v", i, at, o.latency, floor)
			}
			if i < 5 && o.polls < 2 {
				t.Errorf("request %d due at %v found its result on the first poll", i, at)
			}
		} else if o.latency > 50*time.Millisecond {
			t.Errorf("request %d due after the stall: latency %v", i, o.latency)
		}
	}
	// Jobs queued inside the daemon: all of the stall's requests were
	// submitted before the stalled job finished.
	if due := int(stall / gap); len(fake.done) != len(reqs) || fake.done[due-1] != fake.done[0] {
		t.Errorf("jobs due during the stall did not queue behind it: completions %v", fake.done)
	}
	if len(fake.conns) > serveConns {
		t.Errorf("load used %d connections, want at most %d", len(fake.conns), serveConns)
	}
}

func TestScheduleIsSeededAndRepeatsEarlierDocuments(t *testing.T) {
	m := defaultServeMix
	a, err := m.schedule(7, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.schedule(7, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.schedule(8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) < 300 || len(a) > 500 {
		t.Fatalf("schedule lengths %d and %d, want the same and near 400", len(a), len(b))
	}
	same := len(a) == len(c)
	repeats := 0
	for i := range a {
		if a[i].at != b[i].at || !bytes.Equal(a[i].body, b[i].body) || a[i].repeatOf != b[i].repeatOf {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		if same && i < len(c) && !bytes.Equal(a[i].body, c[i].body) {
			same = false
		}
		if j := a[i].repeatOf; j >= 0 {
			repeats++
			if j > i-repeatNear || j < i-repeatFar || a[j].repeatOf >= 0 || !bytes.Equal(a[i].body, a[j].body) {
				t.Fatalf("request %d repeats %d, outside the window or not a fresh original", i, j)
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 drew the same schedule")
	}
	// Only the first block has too few earlier requests to repeat.
	if share := float64(repeats) / float64(len(a)); share < 0.28 || share > 0.30 {
		t.Errorf("repeat share %.3f, want just under 0.30", share)
	}
}
