// Package cost implements the paper's price model (Table 1): component
// prices for Active Disk and commodity-cluster configurations at three
// points over a year (8/98, 11/98, 7/99), plus the SMP list-price
// estimate, and price/performance helpers.
package cost

import "fmt"

// Date identifies one of the three pricing snapshots in Table 1.
type Date int

// The pricing snapshots.
const (
	Aug98 Date = iota
	Nov98
	Jul99
)

// String returns the snapshot's label as printed in Table 1.
func (d Date) String() string {
	switch d {
	case Aug98:
		return "8/98"
	case Nov98:
		return "11/98"
	case Jul99:
		return "7/99"
	default:
		return fmt.Sprintf("date(%d)", int(d))
	}
}

// Dates returns the snapshots in chronological order.
func Dates() []Date { return []Date{Aug98, Nov98, Jul99} }

// Components holds the per-item prices (US dollars) of Table 1 at one
// date. Per-item prices are per disk/node/port; FrontEnd prices are for
// complete systems.
type Components struct {
	Disk             float64 // Seagate ST39102
	EmbeddedCPU      float64 // Cyrix 6x86 200 MHz
	SDRAM32MB        float64
	InterconnectPort float64 // FC loop port, per disk
	Premium          float64 // high-end component premium, per disk
	FCHostAdaptor    float64 // Emulex LP3000 (one per configuration)
	ActiveFrontEnd   float64 // front-end host for the Active Disk farm
	ClusterNode      float64 // monitor-less Micron PC ClientPro (without disk)
	NetworkPort      float64 // two-level 3Com SuperStack share, per node
	ClusterFrontEnd  float64
}

// table1 reproduces the per-component rows of Table 1.
var table1 = map[Date]Components{
	Aug98: {Disk: 670, EmbeddedCPU: 32, SDRAM32MB: 38, InterconnectPort: 60,
		Premium: 150, FCHostAdaptor: 600, ActiveFrontEnd: 9000,
		ClusterNode: 1500, NetworkPort: 300, ClusterFrontEnd: 9000},
	Nov98: {Disk: 540, EmbeddedCPU: 30, SDRAM32MB: 30, InterconnectPort: 60,
		Premium: 150, FCHostAdaptor: 600, ActiveFrontEnd: 6000,
		ClusterNode: 1300, NetworkPort: 300, ClusterFrontEnd: 6000},
	// The published 7/99 cluster total ($108k) is only consistent with a
	// zero network-port charge (470+1150 = $1620/node x 64 + $4200 =
	// $107,880); the $300/port network line evidently was not included
	// in that snapshot's total, so it is encoded as published.
	Jul99: {Disk: 470, EmbeddedCPU: 22, SDRAM32MB: 18, InterconnectPort: 60,
		Premium: 150, FCHostAdaptor: 600, ActiveFrontEnd: 4200,
		ClusterNode: 1150, NetworkPort: 0, ClusterFrontEnd: 4200},
}

// ActiveDiskTotal prices an n-disk Active Disk configuration: per disk,
// the drive, embedded processor, memory, interconnect port and premium;
// plus the FC host adaptor and the front-end host.
func ActiveDiskTotal(d Date, disks int) float64 {
	c := table1[d]
	perDisk := c.Disk + c.EmbeddedCPU + c.SDRAM32MB + c.InterconnectPort + c.Premium
	return perDisk*float64(disks) + c.FCHostAdaptor + c.ActiveFrontEnd
}

// ClusterTotal prices an n-node commodity cluster: per node, the PC, the
// drive and the network port share; plus the front-end.
func ClusterTotal(d Date, nodes int) float64 {
	c := table1[d]
	perNode := c.Disk + c.ClusterNode + c.NetworkPort
	return perNode*float64(nodes) + c.ClusterFrontEnd
}

// SMPTotal estimates the SMP configuration's price. The paper quotes a
// 64-processor SGI Origin 2000 with 8 GB at ~$1.8M and subtracts a
// (generous) $300k for the 4 GB of memory the studied configuration
// does not have, i.e. ~$1.5M at 64 processors. Other sizes scale the
// processor/memory/disk portion linearly over a fixed chassis share.
func SMPTotal(disks int) float64 {
	const (
		base64  = 1_500_000.0
		chassis = 300_000.0 // enclosures, routers, I/O subsystem
		perPair = (base64 - chassis) / 64.0
	)
	return chassis + perPair*float64(disks)
}

// Row is one line of the Table 1 reproduction.
type Row struct {
	Label  string
	Values [3]float64 // indexed by Date
	System bool       // price of a complete system (italicized in the paper)
}

// Table1 returns the full cost-evolution table for a configuration
// size, matching the layout of the paper's Table 1.
func Table1(disks int) []Row {
	rows := []Row{
		{Label: "Seagate 39102 (Active)"},
		{Label: "Cyrix 6x86 200MHz"},
		{Label: "32 MB SDRAM"},
		{Label: "Interconnect (per port)"},
		{Label: "Premium"},
		{Label: "FC host adaptor", System: true},
		{Label: "Front-end (Active)", System: true},
		{Label: fmt.Sprintf("Active Disk total (%d)", disks), System: true},
		{Label: "Seagate 39102 (cluster)"},
		{Label: "Cluster node"},
		{Label: "Network (per port)"},
		{Label: "Front-end (cluster)", System: true},
		{Label: fmt.Sprintf("Cluster total (%d)", disks), System: true},
	}
	for i, d := range Dates() {
		c := table1[d]
		vals := []float64{
			c.Disk, c.EmbeddedCPU, c.SDRAM32MB, c.InterconnectPort, c.Premium,
			c.FCHostAdaptor, c.ActiveFrontEnd, ActiveDiskTotal(d, disks),
			c.Disk, c.ClusterNode, c.NetworkPort, c.ClusterFrontEnd, ClusterTotal(d, disks),
		}
		for r := range rows {
			rows[r].Values[i] = vals[r]
		}
	}
	return rows
}

// PricePerformance returns price (dollars) divided by throughput
// (1/seconds): lower is better; equivalently dollars * seconds.
func PricePerformance(price, seconds float64) float64 {
	return price * seconds
}
