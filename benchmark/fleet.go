package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"asti/internal/loadgen"
)

// fleetWorkload is http-fleet: a prebuilt asmserve on a free loopback
// port, driven over HTTP by internal/loadgen in a closed loop.
type fleetWorkload struct {
	Name        string
	Scale       float64
	Dataset     string
	Batch       int // TRIM-B batch size: the policy is ASTI-<Batch>
	Model       string
	Workers     int
	MaxRounds   int
	Concurrency int
}

var httpFleet = fleetWorkload{Name: "http-fleet", Scale: 0.1, Dataset: "synth-nethept",
	Batch: 4, Model: "IC", Workers: 1, MaxRounds: 8, Concurrency: 2}

func (w fleetWorkload) policy() string { return "ASTI-" + strconv.Itoa(w.Batch) }

// client makes the benchmark's own requests (health probes, warm-up,
// scrapes); loadgen brings its own.
var client = &http.Client{Timeout: 30 * time.Second}

// server is one launched asmserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after exited closes
	out    bytes.Buffer  // combined stdout/stderr, for failure messages
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// launch starts bin as an in-memory asmserve and waits until /healthz
// answers, the process exits, or the timeout passes.
func launch(ctx context.Context, bin string, scale float64, timeout time.Duration) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	s.cmd.Stdout = &s.out
	s.cmd.Stderr = &s.out
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start asmserve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("asmserve exited before it was healthy (%v): %s", s.err, s.out.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("asmserve not healthy after %v", timeout)
		}
	}
}

// stop sends SIGTERM, escalates to SIGKILL after 10s, and returns once
// the process has been reaped.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// alive reports an error if the process has exited.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("asmserve exited during the run (%v): %s", s.err, s.out.String())
	default:
		return nil
	}
}

// warmUp creates and deletes one session, which forces the lazy graph
// load, so the timed run starts on a loaded server.
func (s *server) warmUp(w fleetWorkload) error {
	body, _ := json.Marshal(map[string]any{"dataset": w.Dataset, "policy": w.policy(), "model": w.Model,
		"workers": w.Workers, "seed": 0})
	resp, err := client.Post(s.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("warm-up create: %w", err)
	}
	defer resp.Body.Close()
	var created struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up create: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		return fmt.Errorf("warm-up create: %w", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, s.base+"/v1/sessions/"+created.ID, nil)
	dresp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("warm-up delete: %w", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode/100 != 2 {
		return fmt.Errorf("warm-up delete: status %d", dresp.StatusCode)
	}
	return nil
}

// scrape fetches and parses /metrics.
func (s *server) scrape() (promSample, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// fleetRun is one http-fleet run: set-up timings, the loadgen report and
// the server's view before and after.
type fleetRun struct {
	setup         []time.Duration
	rep           *loadgen.Report
	before, after promSample
	rssMB         float64 // p90 reading of asmserve's resident set
	rssReadings   int
}

// runFleet launches asmserve setupReps times (launch to /healthz plus a
// warm-up create/delete, timed), keeps the last server, and drives it
// for d. The server is stopped and reaped before runFleet returns.
func runFleet(ctx context.Context, w fleetWorkload, bin string, seed uint64, d time.Duration, tr *tracer) (*fleetRun, error) {
	fr := &fleetRun{}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		start := time.Now()
		s, err := launch(ctx, bin, w.Scale, 60*time.Second)
		if err != nil {
			return nil, err
		}
		srv = s
		if err := srv.warmUp(w); err != nil {
			return nil, err
		}
		fr.setup = append(fr.setup, time.Since(start))
	}
	var err error
	if fr.before, err = srv.scrape(); err != nil {
		return nil, fmt.Errorf("scrape before: %w", err)
	}
	rss := sampleRSS(strconv.Itoa(srv.cmd.Process.Pid))
	sp := tr.begin("loadgen.run", 0, noSpan)
	fr.rep, err = loadgen.Run(ctx, loadgen.Config{BaseURL: srv.base, Mode: loadgen.ModeClosed,
		Concurrency: w.Concurrency, Duration: d, MaxRounds: w.MaxRounds, Dataset: w.Dataset,
		Policy: w.policy(), Model: w.Model, Workers: w.Workers, Seed: seed})
	tr.end(sp)
	rssMB, readings, rssErr := rss.finish()
	if err != nil {
		return nil, err
	}
	if err := srv.alive(); err != nil {
		return nil, err
	}
	if fr.after, err = srv.scrape(); err != nil {
		return nil, fmt.Errorf("scrape after: %w", err)
	}
	if rssErr != nil {
		return nil, fmt.Errorf("asmserve resident set: %w", rssErr)
	}
	fr.rssMB, fr.rssReadings = rssMB, readings
	return fr, nil
}

// census compares the client's successful calls with the server's
// counters over the run and returns every mismatch.
func (fr *fleetRun) census() error {
	var errs []error
	for _, c := range []struct{ step, counter string }{
		{"create", "asmserve_sessions_created_total"},
		{"next", "asmserve_proposals_total"},
		{"observe", "asmserve_observations_total"},
		{"delete", "asmserve_sessions_closed_total"},
	} {
		client := float64(fr.rep.Steps[c.step].Count)
		if srv := delta(fr.before, fr.after, c.counter); srv != client {
			errs = append(errs, fmt.Errorf("census: client %s=%v, server %s=%v", c.step, client, c.counter, srv))
		}
	}
	return errors.Join(errs...)
}

// serverMeanMs is the server-side mean of asmserve_step_seconds{op} over
// the run, in ms.
func (fr *fleetRun) serverMeanMs(op string) float64 {
	label := `op="` + op + `"`
	sum := delta(fr.before, fr.after, series("asmserve_step_seconds_sum", label))
	n := delta(fr.before, fr.after, series("asmserve_step_seconds_count", label))
	return safeDiv(sum*1000, n)
}
