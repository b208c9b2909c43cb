// Minimal stand-in for internal/sim: the noblockincallback analyzer
// keys on structural shape — a *Proc (from a package named sim) as
// first parameter marks the blocking API, *Func/At/After methods mark
// continuation registration.
package sim

type Time = int64

type Proc struct{}

func (p *Proc) Delay(d Time)  {}
func (p *Proc) Now() Time     { return 0 }
func (p *Proc) Await() (any, bool) { return nil, false }
func (p *Proc) Chain(start func())  {}

type Task struct{}

type Kernel struct{}

func (k *Kernel) After(d Time, fn func())   {}
func (k *Kernel) NewTask(name string) *Task { return &Task{} }
func (k *Kernel) Handoff(p *Proc)           {}

type Mailbox struct{}

func (m *Mailbox) Get(p *Proc) (any, bool)                  { return nil, false }
func (m *Mailbox) GetFunc(t *Task, fn func(v any, ok bool)) {}
func (m *Mailbox) Put(p *Proc, v any) error                 { return nil }

type Resource struct{}

func (r *Resource) Acquire(p *Proc, n int64)                {}
func (r *Resource) AcquireFunc(t *Task, n int64, fn func()) {}
func (r *Resource) Release(n int64)                         {}
