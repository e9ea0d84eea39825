package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"asti/internal/hdr"
)

// procStatusMB reads one "<field>: <n> kB" line of /proc/<pid>/status
// ("self" for this process) in MB.
func procStatusMB(pid, field string) (float64, error) {
	buf, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine since boot (the steal column of /proc/stat), or -1 where it is
// not reported. Runs on a shared host that lost much of it ran slow.
func stealSeconds() float64 {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// rssSampler reads the resident set (VmRSS) of a process every rssTick
// while a run measures; the run's peak_rss_mb is the 90th percentile of
// the readings, a near-peak level that a single instant cannot set. (The
// lifetime high-water mark, VmHWM, is set by whichever instant two
// concurrent campaigns' sampling arenas happened to overlap.)
type rssSampler struct {
	pid  string
	stop chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

const rssTick = 50 * time.Millisecond

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(rssTick)
	defer t.Stop()
	for {
		v, err := procStatusMB(s.pid, "VmRSS")
		if err != nil {
			s.err = err
			return
		}
		s.mb = append(s.mb, v)
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops sampling and returns the p90 reading in MB and the number
// of readings.
func (s *rssSampler) finish() (float64, int, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	return hdr.QuantileOf(s.mb, 0.9), len(s.mb), nil
}
