package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Acquire(p, 1)
			p.Delay(Millisecond)
			r.Release(1)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], want[i])
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 2)
	var order []int
	// Occupy the whole resource first.
	k.Spawn("hog", func(p *Proc) {
		r.Acquire(p, 2)
		p.Delay(Millisecond)
		r.Release(2)
	})
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Delay(Time(i+1) * Microsecond) // arrive in index order
			r.Acquire(p, 1)
			order = append(order, i)
			p.Delay(Millisecond)
			r.Release(1)
		})
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO 0..4", order)
		}
	}
}

func TestResourceNoBargingPastLargeWaiter(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 4)
	var order []string
	k.Spawn("hold3", func(p *Proc) {
		r.Acquire(p, 3)
		p.Delay(10 * Millisecond)
		r.Release(3)
	})
	k.Spawn("want4", func(p *Proc) {
		p.Delay(Microsecond)
		r.Acquire(p, 4) // must wait for all capacity
		order = append(order, "want4")
		r.Release(4)
	})
	k.Spawn("want1", func(p *Proc) {
		p.Delay(2 * Microsecond)
		r.Acquire(p, 1) // one unit is free, but want4 is ahead in line
		order = append(order, "want1")
		r.Release(1)
	})
	k.Run()
	if len(order) != 2 || order[0] != "want4" || order[1] != "want1" {
		t.Errorf("grant order = %v, want [want4 want1] (FIFO, no barging)", order)
	}
}

func TestAcquireOverCapacityPanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 1)
	k.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("acquiring more than capacity should panic")
			}
		}()
		r.Acquire(p, 2)
	})
	k.Run()
}

func TestReleaseOverInUsePanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 3)
	k.Spawn("a", func(p *Proc) {
		r.Acquire(p, 1)
		defer func() {
			if recover() == nil {
				t.Error("releasing more than held should panic")
			}
		}()
		r.Release(2)
	})
	k.Run()
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 2)
	k.Spawn("a", func(p *Proc) {
		r.Acquire(p, 1) // 1 of 2 in use for 1s => utilization 0.5 over [0,1s)
		p.Delay(Second)
		r.Release(1)
		p.Delay(Second) // 0 in use for the second half => 0.25 overall
	})
	k.Run()
	if u := r.Utilization(); u < 0.249 || u > 0.251 {
		t.Errorf("Utilization() = %v, want 0.25", u)
	}
}

func TestMutex(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Delay(Millisecond)
			inside--
			m.Unlock()
		})
	}
	k.Run()
	if maxInside != 1 {
		t.Errorf("mutex admitted %d holders simultaneously", maxInside)
	}
}

func TestResourceConservation(t *testing.T) {
	// Property: for any pattern of acquire/release amounts, in-use never
	// exceeds capacity and ends at zero when everything is released.
	f := func(amounts []uint8) bool {
		k := NewKernel()
		const cap = 16
		r := NewResource(k, "r", cap)
		ok := true
		for _, a := range amounts {
			amt := int64(a%cap) + 1
			k.Spawn("u", func(p *Proc) {
				r.Acquire(p, amt)
				if r.InUse() > cap {
					ok = false
				}
				p.Delay(Time(amt) * Microsecond)
				r.Release(amt)
			})
		}
		k.Run()
		return ok && r.InUse() == 0 && k.Blocked() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
