// Fixture for the noblockincallback analyzer.
package nbfx

import (
	"nbfx/netsim"
	"nbfx/sim"
)

type server struct {
	k   *sim.Kernel
	t   *sim.Task
	mb  *sim.Mailbox
	res *sim.Resource
	p   *sim.Proc

	stepFn func()
}

// start registers continuations: a bound method through GetFunc, a
// method bound into an Fn-suffixed field, and a literal through After.
func (s *server) start() {
	s.stepFn = s.step
	s.mb.GetFunc(s.t, s.onGet)
	s.k.After(10, func() {
		s.res.Acquire(s.p, 1) // want `blocking Resource\.Acquire called from a continuation literal`
	})
}

// onGet is reachable only as a callback.
func (s *server) onGet(v any, ok bool) {
	s.res.Acquire(s.p, 1) // want `blocking Resource\.Acquire called from callback-only function onGet`
	s.helper()
}

// helper is called only from callback context, so the hazard follows
// it down the call graph.
func (s *server) helper() {
	s.p.Delay(5) // want `blocking Proc\.Delay called from callback-only function helper`
	s.k.Handoff(s.p) // Kernel methods ARE kernel context: clean
}

// step is callback-bound via the Fn-field convention.
func (s *server) step() {
	_, _ = s.mb.Get(s.p) // want `blocking Mailbox\.Get called from callback-only function step`
}

// shared is registered as a continuation AND called directly from
// process code, so it is not callback-only: clean (the process path
// legitimately blocks in it).
func (s *server) shared() {
	s.p.Delay(1)
}

func (s *server) registerShared() {
	s.res.AcquireFunc(s.t, 1, s.shared)
}

// chained starts a chain whose first step blocks: the process is
// asleep in the chain, so its steps must use the callback forms.
func (s *server) chained(p *sim.Proc) {
	p.Chain(func() {
		s.res.Acquire(p, 1) // want `blocking Resource\.Acquire called from a continuation literal`
	})
}

// send continues in kernel context once the message is injected: the
// continuation must not block.
func (s *server) send(n *netsim.Network) {
	n.SendFunc(s.t, 0, 1, 0, 64, nil, func(*netsim.Message) {
		s.p.Delay(1) // want `blocking Proc\.Delay called from a continuation literal`
	})
}

// processLoop is ordinary process code: blocking is the point.
func (s *server) processLoop(p *sim.Proc) {
	s.res.Acquire(p, 1)
	p.Delay(3)
	s.res.Release(1)
	s.shared()
}

func (s *server) allowedCallback() {
	s.k.After(1, func() {
		//howsim:allow noblockincallback -- test-only harness, kernel idle here
		s.p.Delay(1)
	})
}
