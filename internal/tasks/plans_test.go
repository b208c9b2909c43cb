package tasks

import (
	"testing"

	"howsim/internal/workload"
)

// TestCubeShapeAllocatesOnce pins cubeShape at one allocation, the
// shape's table slice: the full-scale dataset it consults for the
// scaling fraction carries its cube dimensions by value.
func TestCubeShapeAllocatesOnce(t *testing.T) {
	ds := scaled(workload.DataCube, 48<<20)
	if n := testing.AllocsPerRun(100, func() { cubeShape(ds) }); n != 1 {
		t.Errorf("cubeShape allocates %v times per call, want 1", n)
	}
}
