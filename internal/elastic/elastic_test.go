package elastic

import (
	"testing"

	"cronus/internal/sim"
)

func TestDefaults(t *testing.T) {
	var c Config
	c.Defaults()
	if c != (Config{Interval: 250 * sim.Microsecond, HighDepth: 96, LowDepth: 8, HighShed: 0.05}) {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Negative LowDepth (scale-down disabled) must survive defaulting.
	c2 := Config{LowDepth: -1}
	c2.Defaults()
	if c2.LowDepth != -1 {
		t.Fatalf("LowDepth -1 overwritten to %d", c2.LowDepth)
	}
}

func TestDecideWatermarks(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Signals
		want Action
	}{
		{"idle scales down", Signals{QueueDepth: 2}, ScaleDown},
		{"nominal holds", Signals{QueueDepth: 50}, Hold},
		{"deep queue scales up", Signals{QueueDepth: 200}, ScaleUp},
		{"shedding scales up", Signals{QueueDepth: 50, ShedRate: 0.2}, ScaleUp},
	} {
		c := NewController(Config{})
		if got := c.Decide(1000, tc.s); got != tc.want {
			t.Errorf("%s: Decide = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDecideCooldown(t *testing.T) {
	c := NewController(Config{})
	hot := Signals{QueueDepth: 1000}
	if got := c.Decide(0, hot); got != ScaleUp {
		t.Fatalf("first decision = %v, want scale-up", got)
	}
	if got := c.Decide(sim.Time(100*sim.Microsecond), hot); got != Hold {
		t.Fatalf("decision inside cooldown = %v, want hold", got)
	}
	if got := c.Decide(sim.Time(2*sim.Millisecond), hot); got != ScaleUp {
		t.Fatalf("decision past cooldown = %v, want scale-up", got)
	}
}

func TestDecideScaleDownDisabled(t *testing.T) {
	c := NewController(Config{LowDepth: -1})
	if got := c.Decide(1000, Signals{}); got != Hold {
		t.Fatalf("Decide with LowDepth -1 = %v, want hold", got)
	}
}

func TestStormAlternates(t *testing.T) {
	c := NewController(Config{}) // the 1ms cooldown must not gate storms
	c.AddStorm(100, 200)
	if c.StormActive(50) || !c.StormActive(150) || c.StormActive(200) {
		t.Fatal("StormActive window wrong")
	}
	want := []Action{ScaleDown, ScaleUp, ScaleDown, ScaleUp}
	for i, w := range want {
		if got := c.Decide(sim.Time(100+i), Signals{QueueDepth: 50}); got != w {
			t.Fatalf("storm tick %d = %v, want %v", i, got, w)
		}
	}
	// Outside the window the nominal signal holds again.
	if got := c.Decide(5000, Signals{QueueDepth: 50}); got != Hold {
		t.Fatalf("post-storm decision = %v, want hold", got)
	}
}

func TestActionString(t *testing.T) {
	if Hold.String() != "hold" || ScaleUp.String() != "scale-up" || ScaleDown.String() != "scale-down" {
		t.Fatal("Action.String drifted")
	}
}

func TestEndpointString(t *testing.T) {
	if got := (Endpoint{Node: 1, Part: 3}).String(); got != "n1/gpu-part3" {
		t.Fatalf("Endpoint.String = %q", got)
	}
}
