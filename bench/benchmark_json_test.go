package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which declares the
// benchmark, in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n%+v\n%+v", decl.PerLayer, perLayer)
	}
}
