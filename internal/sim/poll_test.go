package sim

import "testing"

func TestNextPollInstant(t *testing.T) {
	cases := []struct {
		first  Time
		period Duration
		now    Time
		want   Time
	}{
		{100, 480, 0, 100},    // before the first read
		{100, 480, 100, 100},  // exactly at the first read
		{100, 480, 101, 580},  // just past: next grid point
		{100, 480, 580, 580},  // exactly on a grid point
		{100, 480, 581, 1060}, // just past a grid point
		{0, 400, 799, 800},
		{0, 400, 800, 800},
	}
	for _, c := range cases {
		if got := NextPollInstant(c.first, c.period, c.now); got != c.want {
			t.Fatalf("NextPollInstant(%d, %d, %d) = %d, want %d", c.first, c.period, c.now, got, c.want)
		}
	}
}

func TestCondBroadcastWakesAllInOrder(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(10)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order %v, want [a b c]", order)
	}
}

func TestCondIsEdgeTriggered(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	woke := false
	k.Spawn("caster", func(p *Proc) {
		c.Broadcast() // no waiters: lost, by design
	})
	k.Spawn("late", func(p *Proc) {
		p.Sleep(5)
		done := false
		k.Spawn("second-cast", func(q *Proc) {
			q.Sleep(5)
			done = true
			c.Broadcast()
		})
		c.Wait(p)
		if !done {
			t.Error("woken by a broadcast that predates the wait")
		}
		woke = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("waiter never woke")
	}
}

func TestCondKilledWaiterIsDropped(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var victim *Proc
	reached := false
	k.Spawn("victim", func(p *Proc) {
		victim = p
		c.Wait(p)
		reached = true // must not run: the proc dies parked
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(10)
		k.Kill(victim)
		p.Sleep(10)
		c.Broadcast() // must not touch the dead proc
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed waiter resumed past Wait")
	}
	if c.waiters.Len() != 0 {
		t.Fatalf("dead waiter still queued: %d", c.waiters.Len())
	}
}
