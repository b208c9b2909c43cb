package main

import (
	"testing"

	"howsim/internal/workload"
)

func TestScaledDatasets(t *testing.T) {
	got, err := scaledDatasets("select, sort,", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Task != workload.Select || got[1].Task != workload.Sort {
		t.Fatalf("scaledDatasets(\"select, sort,\") = %+v, want select then sort", got)
	}
	if full := workload.ForTask(workload.Sort); got[1].TotalBytes != full.TotalBytes/4 {
		t.Errorf("sort at scale 0.25 has %d bytes, want %d", got[1].TotalBytes, full.TotalBytes/4)
	}
	// A scale whose byte count rounds to zero used to measure the full
	// Table 2 dataset.
	if _, err := scaledDatasets("select", 1e-300); err == nil {
		t.Error("scale 1e-300 accepted")
	}
	if _, err := scaledDatasets("nosuchtask", 0.25); err == nil {
		t.Error("unknown task accepted")
	}
}
