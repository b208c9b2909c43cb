package disk

import (
	"fmt"
	"math"

	"howsim/internal/sim"
)

// geometry precomputes the LBA-to-physical mapping for a spec.
type geometry struct {
	spec         *Spec
	zoneStartCyl []int   // first cylinder of each zone
	zoneStartLBA []int64 // first sector (LBA) of each zone
	totalSectors int64
	totalCyl     int
}

func newGeometry(spec *Spec) geometry {
	g := geometry{
		spec:         spec,
		zoneStartCyl: make([]int, len(spec.Zones)),
		zoneStartLBA: make([]int64, len(spec.Zones)),
	}
	cyl := 0
	var lba int64
	for i, z := range spec.Zones {
		g.zoneStartCyl[i] = cyl
		g.zoneStartLBA[i] = lba
		cyl += z.Cylinders
		lba += int64(z.Cylinders) * int64(spec.Heads) * int64(z.SectorsPerTrack)
	}
	g.totalCyl = cyl
	g.totalSectors = lba
	return g
}

// location is the physical position of a sector.
type location struct {
	zone         int
	cylinder     int
	sectorInTrk  int64
	spt          int // sectors per track in this zone
	sectorsPerCy int64
}

// locate maps an LBA to its physical location.
func (g *geometry) locate(lba int64) location {
	if lba < 0 || lba >= g.totalSectors {
		panic(fmt.Sprintf("disk: LBA %d out of range [0,%d)", lba, g.totalSectors))
	}
	// Zones are few (8); linear scan is clear and fast enough.
	zi := 0
	for zi+1 < len(g.zoneStartLBA) && lba >= g.zoneStartLBA[zi+1] {
		zi++
	}
	z := g.spec.Zones[zi]
	rel := lba - g.zoneStartLBA[zi]
	perCyl := int64(g.spec.Heads) * int64(z.SectorsPerTrack)
	return location{
		zone:         zi,
		cylinder:     g.zoneStartCyl[zi] + int(rel/perCyl),
		sectorInTrk:  rel % int64(z.SectorsPerTrack),
		spt:          z.SectorsPerTrack,
		sectorsPerCy: perCyl,
	}
}

// seekCurve models seek time as a function of cylinder distance using
// the standard two-region fit: a square-root region for short seeks
// (arm acceleration-limited) joined continuously to a linear region for
// long seeks (coast-limited). The curve is calibrated so that
// seek(1) = track-to-track, seek(C/3) = average and seek(C-1) = maximum,
// matching how average seek is defined in drive specifications.
type seekCurve struct {
	knee       float64 // cylinder distance where the regions join
	sqrtA      float64 // ns
	sqrtB      float64 // ns per sqrt(cyl)
	linBase    float64 // ns at the knee
	linSlope   float64 // ns per cylinder beyond the knee
	maxCylDist float64
}

func newSeekCurve(trackToTrack, avg, max sim.Time, cylinders int) seekCurve {
	c := float64(cylinders)
	knee := c / 3
	ttt, av, mx := float64(trackToTrack), float64(avg), float64(max)
	// Solve a + b*sqrt(1) = ttt and a + b*sqrt(knee) = av.
	b := (av - ttt) / (math.Sqrt(knee) - 1)
	a := ttt - b
	slope := (mx - av) / (c - 1 - knee)
	return seekCurve{knee: knee, sqrtA: a, sqrtB: b, linBase: av, linSlope: slope, maxCylDist: c - 1}
}

// seekTime returns the time to move the arm across dist cylinders.
func (s seekCurve) seekTime(dist int) sim.Time {
	if dist <= 0 {
		return 0
	}
	d := float64(dist)
	if d > s.maxCylDist {
		d = s.maxCylDist
	}
	if d <= s.knee {
		return sim.Time(s.sqrtA + s.sqrtB*math.Sqrt(d))
	}
	return sim.Time(s.linBase + s.linSlope*(d-s.knee))
}
