package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Spec is BENCHMARK.json: the one place metric names, units, bounds and
// workload names are written down. The harness reads it instead of
// repeating it, and refuses to emit a metric the file does not name.
type Spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload names one workload and why it exists.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric describes one metric; Bound is set for end-to-end metrics
// only.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome: the line the driver reads.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// build turns measured values into exactly the spec's end-to-end
// metrics (traced false) or per-layer metrics (traced true), each with
// its unit. A named metric the run did not measure, or a measured one
// the list does not name, is an error: the file and the code cannot
// drift apart unnoticed.
func (s *Spec) build(traced bool, values map[string]float64) (map[string]Metric, error) {
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	out := make(map[string]Metric, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is named in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = Metric{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json's list for this kind of run", name)
		}
	}
	return out, nil
}
