package core

import "testing"

func TestFacadeRunsAllArchitectures(t *testing.T) {
	for _, cfg := range []Config{ActiveDisks(4), Cluster(4), SMP(4)} {
		res := New(cfg, Select).WithScale(1.0 / 512).Run()
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", cfg.Name(), res.Elapsed)
		}
	}
}

func TestWithScaleShrinksDataset(t *testing.T) {
	s := New(ActiveDisks(4), Sort).WithScale(0.01)
	full := New(ActiveDisks(4), Sort)
	if s.Dataset().TotalBytes >= full.Dataset().TotalBytes {
		t.Error("WithScale did not shrink the dataset")
	}
	if s.Dataset().TupleBytes != full.Dataset().TupleBytes {
		t.Error("scaling must preserve tuple width")
	}
}

func TestDeterminism(t *testing.T) {
	a := New(SMP(4), GroupBy).WithScale(1.0 / 512).Run()
	b := New(SMP(4), GroupBy).WithScale(1.0 / 512).Run()
	if a.Elapsed != b.Elapsed {
		t.Errorf("identical simulations differ: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestDesignKnobsCompose(t *testing.T) {
	cfg := ActiveDisks(8).WithFastIO().WithDiskMemory(64 << 20).WithFrontEndOnly()
	res := New(cfg, Sort).WithScale(1.0 / 256).Run()
	if res.Elapsed <= 0 {
		t.Fatal("composed configuration failed to run")
	}
	if res.Details["fe_relay_bytes"] == 0 {
		t.Error("front-end-only knob not applied")
	}
}

// TestWithScaleRejectsTinyScale: a fraction whose byte count rounds to
// zero used to run the full Table 2 dataset; it must fail loudly.
func TestWithScaleRejectsTinyScale(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("WithScale(1e-300) did not panic")
		}
	}()
	s := New(ActiveDisks(4), Select).WithScale(1e-300)
	t.Fatalf("WithScale(1e-300) returned a %d-byte dataset", s.Dataset().TotalBytes)
}
