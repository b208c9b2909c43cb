package sim

import (
	"slices"
	"testing"
)

// waitEvent is one completed operation in FuzzWaiterOrder: the actor's
// id and its outcome (the item a get took, -1 for a get that found the
// mailbox closed or a TryGet that found it empty, 0 for a put that
// enqueued, -2 for a put refused by a closed mailbox, the amount for a
// resource grant).
type waitEvent struct{ id, v int }

// waiterModel is the reference for FuzzWaiterOrder: a bounded mailbox
// and a counting resource whose waiters are plain FIFOs. Every
// operation arrives at its own instant, so each one's cascade of wakes
// settles before the next arrives, and the completions come out in the
// order the model appends them.
type waiterModel struct {
	mbCap, resCap int
	items         []int
	getters       []int
	putters       []waitEvent // id and the value it puts
	closed        bool
	inUse         int
	resWait       []waitEvent // id and amount
	holders       []waitEvent
	log           []waitEvent
}

// put is an arrival of putter id with value v.
func (m *waiterModel) put(id, v int) {
	switch {
	case m.closed:
		m.log = append(m.log, waitEvent{id, -2})
	case m.mbCap > 0 && len(m.items) >= m.mbCap:
		m.putters = append(m.putters, waitEvent{id, v})
	default:
		m.items = append(m.items, v)
		m.log = append(m.log, waitEvent{id, 0})
		if len(m.getters) > 0 {
			g := m.getters[0]
			m.getters = m.getters[1:]
			m.take(g)
		}
	}
}

// take pops the oldest item for id and lets the oldest parked putter in.
func (m *waiterModel) take(id int) {
	v := m.items[0]
	m.items = m.items[1:]
	m.log = append(m.log, waitEvent{id, v})
	if len(m.putters) > 0 {
		p := m.putters[0]
		m.putters = m.putters[1:]
		m.items = append(m.items, p.v)
		m.log = append(m.log, waitEvent{p.id, 0})
	}
}

// get is an arrival of getter id; a try getter never parks.
func (m *waiterModel) get(id int, try bool) {
	switch {
	case len(m.items) > 0:
		m.take(id)
	case m.closed || try:
		m.log = append(m.log, waitEvent{id, -1})
	default:
		m.getters = append(m.getters, id)
	}
}

func (m *waiterModel) close() {
	if m.closed {
		return
	}
	m.closed = true
	for _, g := range m.getters {
		m.log = append(m.log, waitEvent{g, -1})
	}
	for _, p := range m.putters {
		m.log = append(m.log, waitEvent{p.id, -2})
	}
	m.getters, m.putters = nil, nil
}

// acquire is an arrival of id for amount units: granted at once only
// when nobody is queued and the units are free (no barging).
func (m *waiterModel) acquire(id, amount int) {
	m.resWait = append(m.resWait, waitEvent{id, amount})
	if len(m.resWait) == 1 {
		m.admit()
	}
}

func (m *waiterModel) admit() {
	for len(m.resWait) > 0 && m.inUse+m.resWait[0].v <= m.resCap {
		w := m.resWait[0]
		m.resWait = m.resWait[1:]
		m.inUse += w.v
		m.holders = append(m.holders, w)
		m.log = append(m.log, w)
	}
}

// release returns the units of holder i.
func (m *waiterModel) release(i int) {
	h := m.holders[i]
	m.holders = slices.Delete(m.holders, i, i+1)
	m.inUse -= h.v
	m.admit()
}

// FuzzWaiterOrder runs processes and bare tasks, mixed, on one bounded
// Mailbox and one Resource, and checks every completion — its order
// and its outcome — against waiterModel's plain FIFOs. raw[0] sets the
// mailbox capacity (raw[0]%4; 0 is unbounded) and raw[1] the resource
// capacity (1+raw[1]%4). Each further byte b is one operation at its
// own instant, by b%8: 0 Put, 1 PutFunc, 2 Get, 3 GetFunc, 4 TryGet,
// 5 Acquire and 6 AcquireFunc of 1+(b>>3)%capacity units, and 7 either
// Close (when b>>3 == 31) or the Release of holder (b>>3)%holders.
func FuzzWaiterOrder(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 1, 4, 3, 0, 2})
	f.Add([]byte{1, 1, 0, 1, 0, 2, 3, 2, 0xff, 2, 0})
	f.Add([]byte{2, 3, 5, 0x1d, 6, 0x0e, 7, 0x15, 7, 0x07, 6})
	f.Add([]byte{0, 2, 0, 1, 0, 4, 2, 3, 2, 0xff, 1, 3, 4})
	f.Add([]byte{3, 3, 0x1d, 0x05, 0x0e, 0x05, 0x16, 0x07, 0x0f, 0x07, 0, 1, 0, 1, 3, 2, 2, 2, 0xff, 2, 0, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		ref := waiterModel{mbCap: int(raw[0] % 4), resCap: 1 + int(raw[1]%4)}
		ops := raw[2:min(len(raw), 66)]
		k := NewKernel()
		defer k.Shutdown()
		mb := NewMailbox(k, "mb", ref.mbCap)
		r := NewResource(k, "res", int64(ref.resCap))
		var log, holders []waitEvent
		done := func(id, v int) { log = append(log, waitEvent{id, v}) }
		granted := func(id, amount int) {
			holders = append(holders, waitEvent{id, amount})
			done(id, amount)
		}
		putErr := func(err error) int {
			if err != nil {
				return -2
			}
			return 0
		}
		gotVal := func(v any, ok bool) int {
			if !ok {
				return -1
			}
			return v.(int)
		}
		for i, b := range ops {
			id, at, arg := i, Time(10*(i+1)), int(b>>3)
			amount := 1 + arg%ref.resCap
			spawn := func(body func(p *Proc)) {
				k.Spawn("proc", func(p *Proc) {
					p.Delay(at - p.Now())
					body(p)
				})
			}
			switch b % 8 {
			case 0:
				ref.put(id, 100+id)
				spawn(func(p *Proc) { done(id, putErr(mb.Put(p, 100+id))) })
			case 1:
				ref.put(id, 100+id)
				k.At(at, func() {
					w := k.NewTask("putter")
					mb.PutFunc(w, 100+id, func(err error) { done(id, putErr(err)); w.Finish() })
				})
			case 2:
				ref.get(id, false)
				spawn(func(p *Proc) { done(id, gotVal(mb.Get(p))) })
			case 3:
				ref.get(id, false)
				k.At(at, func() {
					w := k.NewTask("getter")
					mb.GetFunc(w, func(v any, ok bool) { done(id, gotVal(v, ok)); w.Finish() })
				})
			case 4:
				ref.get(id, true)
				k.At(at, func() { done(id, gotVal(mb.TryGet())) })
			case 5:
				ref.acquire(id, amount)
				spawn(func(p *Proc) {
					r.Acquire(p, int64(amount))
					granted(id, amount)
				})
			case 6:
				ref.acquire(id, amount)
				k.At(at, func() {
					w := k.NewTask("acquirer")
					r.AcquireFunc(w, int64(amount), func() { granted(id, amount); w.Finish() })
				})
			case 7:
				if arg == 31 {
					ref.close()
					k.At(at, mb.Close)
					continue
				}
				if len(ref.holders) == 0 {
					continue
				}
				ref.release(arg % len(ref.holders))
				k.At(at, func() {
					if len(holders) == 0 {
						t.Errorf("op %d: release with no holder", id)
						return
					}
					j := arg % len(holders)
					h := holders[j]
					holders = slices.Delete(holders, j, j+1)
					r.Release(int64(h.v))
				})
			}
		}
		k.Run()
		if !slices.Equal(log, ref.log) {
			t.Fatalf("completions %v, want %v", log, ref.log)
		}
		parked := len(ref.getters) + len(ref.putters) + len(ref.resWait)
		if k.Blocked() != parked || mb.Len() != len(ref.items) || r.InUse() != int64(ref.inUse) || r.QueueLen() != len(ref.resWait) {
			t.Fatalf("end state: %d blocked, %d items, %d in use, %d queued; want %d, %d, %d, %d",
				k.Blocked(), mb.Len(), r.InUse(), r.QueueLen(), parked, len(ref.items), ref.inUse, len(ref.resWait))
		}
	})
}
