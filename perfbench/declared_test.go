package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDeclarationsMatchBenchmarkJSON keeps the metric lists the
// program emits in step with the repository's BENCHMARK.json.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
