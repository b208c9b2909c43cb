package sim

import "testing"

func TestBreakdownAccumulatesAndFractions(t *testing.T) {
	b := NewBreakdown()
	b.Add("cpu", 3*Second)
	b.Add("idle", Second)
	b.Add("cpu", Second)
	if b.Total() != 5*Second {
		t.Errorf("Total = %v, want 5s", b.Total())
	}
	if got := b.Fraction("cpu"); got != 0.8 {
		t.Errorf("Fraction(cpu) = %v, want 0.8", got)
	}
	if got := b.Get("idle"); got != Second {
		t.Errorf("Get(idle) = %v", got)
	}
	if got := b.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %v, want 0", got)
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "cpu" || names[1] != "idle" {
		t.Errorf("Names = %v, want first-use order", names)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := NewBreakdown()
	if b.Total() != 0 || b.Fraction("x") != 0 || len(b.Names()) != 0 {
		t.Error("empty breakdown misbehaves")
	}
}
