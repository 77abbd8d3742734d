package sim

import (
	"fmt"
	"time"
)

// Server models a serial resource (for example one dispatcher CPU): jobs
// submitted to it are served FIFO, one at a time, each occupying the server
// for its service duration. The paper's throughput ceilings — 487 dispatches
// per second through one dispatcher, 500 WS calls per second through a GT4
// container — are expressed as servers whose per-job service time is the
// reciprocal rate.
type Server struct {
	e       *Engine
	name    string
	busy    bool
	queue   []serverJob
	served  uint64
	busyFor time.Duration // accumulated busy time, for utilization
}

type serverJob struct {
	service time.Duration
	done    func()
}

// NewServer creates an idle server.
func NewServer(e *Engine, name string) *Server {
	return &Server{e: e, name: name}
}

// Submit enqueues a job that occupies the server for service, then invokes
// done (which may be nil).
func (s *Server) Submit(service time.Duration, done func()) {
	if service < 0 {
		panic(fmt.Sprintf("sim: server %q negative service %v", s.name, service))
	}
	s.queue = append(s.queue, serverJob{service: service, done: done})
	if !s.busy {
		s.startNext()
	}
}

// startNext begins serving the queue head.
func (s *Server) startNext() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	job := s.queue[0]
	s.queue = s.queue[1:]
	s.busy = true
	s.busyFor += job.service
	s.e.After(job.service, func() {
		s.served++
		if job.done != nil {
			job.done()
		}
		s.startNext()
	})
}

// QueueLen returns the number of jobs waiting (not counting the one in
// service).
func (s *Server) QueueLen() int { return len(s.queue) }

// Busy reports whether a job is currently in service.
func (s *Server) Busy() bool { return s.busy }

// Served returns the number of completed jobs.
func (s *Server) Served() uint64 { return s.served }

// Utilization returns busy time divided by elapsed virtual time (0 when no
// time has elapsed).
func (s *Server) Utilization() float64 {
	if s.e.Now() <= 0 {
		return 0
	}
	u := s.busyFor.Seconds() / s.e.Now().Seconds()
	if u > 1 {
		u = 1
	}
	return u
}
