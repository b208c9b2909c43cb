// timeline: trace one external sort on all three architectures and
// compare where the time goes, phase by phase. Each run executes with
// the observability sink attached, writes a Chrome trace_event JSON
// file (load it in chrome://tracing or https://ui.perfetto.dev to see
// per-disk seek/transfer spans, link occupancy and processor slices),
// and contributes a column to the per-phase comparison table printed at
// the end.
//
// Run with:
//
//	go run ./examples/timeline             # 8 disks, 1% dataset scale
//	go run ./examples/timeline 16 0.05     # 16 disks, 5% scale
//
// Traces land in the working directory as timeline.<arch>.json.
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"howsim/internal/arch"
	"howsim/internal/probe"
	"howsim/internal/stats"
	"howsim/internal/tasks"
	"howsim/internal/workload"
)

func main() {
	disks, scale := 8, 0.01
	if len(os.Args) > 1 {
		n, err := strconv.Atoi(os.Args[1])
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad disk count %q\n", os.Args[1])
			os.Exit(2)
		}
		disks = n
	}
	if len(os.Args) > 2 {
		f, err := strconv.ParseFloat(os.Args[2], 64)
		if err != nil || f <= 0 || f > 1 {
			fmt.Fprintf(os.Stderr, "bad scale %q\n", os.Args[2])
			os.Exit(2)
		}
		scale = f
	}

	ds := workload.ForTask(workload.Sort)
	ds = ds.Scaled(int64(float64(ds.TotalBytes) * scale))
	archs := []struct {
		name string
		cfg  arch.Config
	}{
		{"active", arch.ActiveDisks(disks)},
		{"cluster", arch.Cluster(disks)},
		{"smp", arch.SMP(disks)},
	}

	fmt.Printf("External sort of %.2f GB on %d disks, traced on all three architectures\n\n",
		float64(ds.TotalBytes)/1e9, disks)

	type phase struct {
		name string
		dur  probe.Time
	}
	var order []string                     // phase names in first-seen order
	cols := map[string]map[string]string{} // arch -> phase -> rendered cell
	elapsed := map[string]float64{}

	for _, a := range archs {
		sink := probe.NewSink()
		res, err := tasks.RunCtx(context.Background(), a.cfg, workload.Sort, ds, nil, sink, tasks.ModeEvent)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := fmt.Sprintf("timeline.%s.json", a.name)
		if err := sink.WriteTraceFile(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %-8s %8.1fs elapsed  -> %s (%d spans)\n",
			a.cfg.Name(), res.Elapsed.Seconds(), path, sink.SpansRecorded())

		var phases []phase
		sink.EachSpan(func(sp probe.Span) {
			if comp, _ := sink.Instance(int(sp.Inst)); comp == "task" {
				phases = append(phases, phase{sink.KindName(sp.Kind), sp.End - sp.Start})
			}
		})
		cells := map[string]string{}
		for _, ph := range phases {
			if _, seen := cells[ph.name]; !seen {
				if !contains(order, ph.name) {
					order = append(order, ph.name)
				}
			}
			cells[ph.name] = fmt.Sprintf("%.1fs (%.0f%%)",
				probe.Seconds(ph.dur), 100*float64(ph.dur)/float64(res.Elapsed))
		}
		cols[a.name] = cells
		elapsed[a.name] = res.Elapsed.Seconds()
	}

	fmt.Println()
	t := &stats.Table{
		Title: "per-phase comparison (share of each run's end-to-end time)",
		Cols:  []string{"phase", "active", "cluster", "smp"},
	}
	for _, name := range order {
		row := []string{name}
		for _, a := range archs {
			cell := cols[a.name][name]
			if cell == "" {
				cell = "-"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	totals := []string{"(elapsed)"}
	for _, a := range archs {
		totals = append(totals, fmt.Sprintf("%.1fs", elapsed[a.name]))
	}
	t.AddRow(totals...)
	fmt.Print(t.String())
	fmt.Println("\nOpen a trace in chrome://tracing to see the same story span by span:")
	fmt.Println("every disk's seek/rotate/transfer activity, every link's occupancy,")
	fmt.Println("every processor's compute slices, on one zoomable virtual timeline.")
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
