package experiments

import (
	"fmt"
	"strings"

	"howsim/internal/arch"
	"howsim/internal/cost"
	"howsim/internal/stats"
	"howsim/internal/workload"
)

// RenderTable1 reproduces Table 1: cost evolution for 64-node Active
// Disk and commodity-cluster configurations over one year.
func RenderTable1(disks int) string {
	t := &stats.Table{
		Title: fmt.Sprintf("Table 1: cost evolution for %d-node Active Disk and cluster configurations", disks),
		Cols:  []string{"Component", "8/98", "11/98", "7/99"},
	}
	for _, row := range cost.Table1(disks) {
		cells := []string{row.Label}
		for _, v := range row.Values {
			cells = append(cells, fmt.Sprintf("$%.0f", v))
		}
		t.AddRow(cells...)
	}
	t.AddRow("SMP total (list estimate)",
		fmt.Sprintf("$%.0f", cost.SMPTotal(disks)),
		fmt.Sprintf("$%.0f", cost.SMPTotal(disks)),
		fmt.Sprintf("$%.0f", cost.SMPTotal(disks)))
	return t.String()
}

// RenderTable2 reproduces Table 2: the salient features of each task's
// dataset.
func RenderTable2() string {
	t := &stats.Table{
		Title: "Table 2: datasets for the tasks in the workload",
		Cols:  []string{"Task", "Characteristics"},
	}
	for _, task := range workload.AllTasks() {
		ds := workload.ForTask(task)
		var desc string
		switch task {
		case workload.Select:
			desc = fmt.Sprintf("%d million %d-byte tuples, %.0f%% selectivity",
				ds.Tuples/1e6, ds.TupleBytes, ds.Selectivity*100)
		case workload.Aggregate:
			desc = fmt.Sprintf("%d million %d-byte tuples, SUM function", ds.Tuples/1e6, ds.TupleBytes)
		case workload.GroupBy:
			desc = fmt.Sprintf("%d million %d-byte tuples, %.1f million distinct",
				ds.Tuples/1e6, ds.TupleBytes, float64(ds.DistinctGroups)/1e6)
		case workload.Sort:
			desc = fmt.Sprintf("%d-byte tuples, %d-byte uniformly distributed keys",
				ds.TupleBytes, ds.KeyBytes)
		case workload.DataCube:
			var dims []string
			for _, f := range ds.CubeDims {
				dims = append(dims, fmt.Sprintf("%g%%", f*100))
			}
			desc = fmt.Sprintf("%d million %d-byte tuples, %d dimensions, %s distinct values",
				ds.Tuples/1e6, ds.TupleBytes, len(ds.CubeDims), strings.Join(dims, ","))
		case workload.Join:
			desc = fmt.Sprintf("%d-byte tuples, %d-byte keys, %d-byte tuples after projection",
				ds.TupleBytes, ds.KeyBytes, ds.ProjectedTupleBytes)
		case workload.DataMine:
			desc = fmt.Sprintf("%d million transactions, %d million items, avg %d items/txn, %.1f%% minsup",
				ds.Transactions/1e6, ds.Items/1e6, ds.AvgItemsPerTxn, ds.MinSupport*100)
		case workload.MView:
			desc = fmt.Sprintf("%d-byte tuples, %d GB derived relations, %d GB deltas",
				ds.TupleBytes, ds.DerivedBytes>>30, ds.DeltaBytes>>30)
		}
		t.AddRow(task.String(), fmt.Sprintf("%s (%d GB)", desc, ds.TotalBytes>>30))
	}
	return t.String()
}

// PricePerformance reports price/performance (dollars x seconds, lower
// is better) for one task at one size across the three architectures,
// using the 7/99 prices — the quantitative form of the paper's
// price/performance claims.
func PricePerformance(f *Figure1, size int, task workload.TaskID) string {
	t := &stats.Table{
		Title: fmt.Sprintf("Price/performance for %s at %d disks (7/99 prices; lower is better)", task, size),
		Cols:  []string{"Architecture", "Price", "Time", "$x s"},
	}
	for k, r := range []struct {
		name  string
		price float64
	}{
		{"Active Disks", cost.ActiveDiskTotal(cost.Jul99, size)},
		{"Cluster", cost.ClusterTotal(cost.Jul99, size)},
		{"SMP", cost.SMPTotal(size)},
	} {
		sec := f.Result(size, task, arch.Kind(k)).Elapsed.Seconds()
		t.AddRow(r.name,
			fmt.Sprintf("$%.0f", r.price),
			fmt.Sprintf("%.1fs", sec),
			fmt.Sprintf("%.2e", cost.PricePerformance(r.price, sec)))
	}
	return t.String()
}
