package sim

import "fmt"

// Resource is a counting semaphore with FIFO admission, used to model
// anything with finite capacity: a bus that admits one transfer at a
// time, a buffer pool with N fixed-size buffers, a disk arm. Waiters are
// granted strictly in arrival order; a large request at the head of the
// queue blocks smaller requests behind it (no barging), which mirrors
// FIFO arbitration in the hardware being modeled.
//
// Resource also accumulates a time-weighted usage integral so that
// utilization can be reported after a run.
type Resource struct {
	k        *Kernel
	name     string
	capacity int64
	inUse    int64
	waiters  Ring[resWaiter]

	lastChange Time
	usageInt   float64 // integral of inUse over time, unit: units*ns
	grants     int64
}

// resWaiter records one parked acquisition. It is stored by value in the
// resource's waiter queue; the grant flag lives on the Task (a task
// waits on at most one resource at a time), so enqueueing never
// allocates.
type resWaiter struct {
	t      *Task
	amount int64
}

// NewResource creates a resource with the given capacity (units are
// whatever the caller chooses: transfers, buffers, bytes).
func NewResource(k *Kernel, name string, capacity int64) *Resource {
	return new(Resource).Init(k, name, capacity)
}

// Init builds r in place as NewResource would, keeping only the storage
// of its waiter queue, and returns it; a nil r is allocated first.
func (r *Resource) Init(k *Kernel, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	if r == nil {
		r = new(Resource)
	}
	*r = Resource{k: k, name: name, capacity: capacity, waiters: r.waiters.Emptied()}
	return r
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// InUse returns the units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

// QueueLen returns the number of processes waiting for the resource.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Grants returns the number of successful acquisitions so far.
func (r *Resource) Grants() int64 { return r.grants }

func (r *Resource) account() {
	r.usageInt += float64(r.inUse) * float64(r.k.now-r.lastChange)
	r.lastChange = r.k.now
}

// Utilization returns the mean fraction of capacity in use between time
// zero and now. It is 0 before any time has elapsed.
func (r *Resource) Utilization() float64 {
	total := float64(r.k.now)
	if total == 0 {
		return 0
	}
	integral := r.usageInt + float64(r.inUse)*float64(r.k.now-r.lastChange)
	return integral / (total * float64(r.capacity))
}

// Acquire blocks p until amount units are available and then claims
// them. Requests exceeding total capacity panic, since they could never
// be satisfied.
func (r *Resource) Acquire(p *Proc, amount int64) {
	if r.tryAcquire(amount) {
		return
	}
	r.enqueue(&p.Task, amount)
	for !p.granted {
		p.parkBlocked(r.name, "acquire")
	}
}

// AcquireFunc is Acquire for callback tasks: it runs fn once amount
// units are claimed — immediately in the caller's context when they are
// free (and no earlier waiter is queued), otherwise in kernel context
// when a release admits the task.
func (r *Resource) AcquireFunc(t *Task, amount int64, fn func()) {
	if r.acquireTask(t, amount, taskWaitAcquire) {
		fn()
		return
	}
	t.cont = fn
}

// acquireTask claims amount units for t and reports true when they are
// free (and no earlier waiter is queued). Otherwise it parks t as kind
// in the waiter queue and reports false; the release that admits t
// wakes it, and dispatch continues by kind.
func (r *Resource) acquireTask(t *Task, amount int64, kind taskWait) bool {
	if r.tryAcquire(amount) {
		return true
	}
	t.parkWait(kind, r.name, "acquire")
	r.enqueue(t, amount)
	return false
}

// tryAcquire claims amount units and reports true when they are free
// and no earlier waiter is queued; a non-positive amount is free. It
// panics on a request exceeding total capacity, which could never be
// satisfied.
func (r *Resource) tryAcquire(amount int64) bool {
	if amount <= 0 {
		return true
	}
	if amount > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d of %s", amount, r.capacity, r.name))
	}
	if r.waiters.Len() > 0 || r.inUse+amount > r.capacity {
		return false
	}
	r.account()
	r.inUse += amount
	r.grants++
	return true
}

// enqueue queues t for amount units behind the current waiters; admit
// sets t.granted and wakes t when they are claimed.
func (r *Resource) enqueue(t *Task, amount int64) {
	t.granted = false
	r.waiters.Push(resWaiter{t: t, amount: amount})
}

// Release returns amount units to the resource and admits as many queued
// waiters (in FIFO order) as now fit.
func (r *Resource) Release(amount int64) {
	if amount <= 0 {
		return
	}
	if amount > r.inUse {
		panic(fmt.Sprintf("sim: release %d exceeds in-use %d of %s", amount, r.inUse, r.name))
	}
	r.account()
	r.inUse -= amount
	r.admit()
}

func (r *Resource) admit() {
	for r.waiters.Len() > 0 && r.inUse+r.waiters.At(0).amount <= r.capacity {
		w := r.waiters.Pop()
		r.inUse += w.amount
		r.grants++
		w.t.granted = true
		w.t.wake()
	}
}

// Mutex is a binary resource: a convenience wrapper for capacity-1
// exclusive sections such as spin-locked critical regions.
type Mutex struct{ r *Resource }

// NewMutex creates an unlocked mutex.
func NewMutex(k *Kernel, name string) *Mutex {
	return &Mutex{r: NewResource(k, name, 1)}
}

// Lock blocks p until the mutex is free and then holds it.
func (m *Mutex) Lock(p *Proc) { m.r.Acquire(p, 1) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.r.Release(1) }
