package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// NoiseRow is the spread of one metric over repeated runs of one
// workload on the same code.
type NoiseRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	// IQRShare is (Q3−Q1)/median, the spread the driver holds against
	// the metric's bound; RangeShare is (max−min)/median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
}

// Noise reduces repeated results of one workload to one row per metric,
// in name order. Quartiles are the exclusive-method ones of Python's
// statistics.quantiles(values, n=4), which is what the driver computes.
func Noise(workload string, results []*Result) []NoiseRow {
	byName := make(map[string]*NoiseRow)
	for _, res := range results {
		for name, m := range res.Metrics {
			row := byName[name]
			if row == nil {
				row = &NoiseRow{Workload: workload, Metric: name, Unit: m.Unit}
				byName[name] = row
			}
			row.Values = append(row.Values, m.Value)
		}
	}
	var rows []NoiseRow
	for _, row := range byName {
		s := append([]float64(nil), row.Values...)
		sort.Float64s(s)
		row.Median = exclusiveQuantile(s, 0.5)
		row.Q1, row.Q3 = exclusiveQuantile(s, 0.25), exclusiveQuantile(s, 0.75)
		row.IQRShare = ratio(row.Q3-row.Q1, row.Median)
		row.RangeShare = ratio(s[len(s)-1]-s[0], row.Median)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	return rows
}

// exclusiveQuantile is the p-quantile of sorted values at position
// p·(n+1), clamped to the ends: Python's default "exclusive" method.
func exclusiveQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	k := p*float64(n+1) - 1
	if k <= 0 {
		return sorted[0]
	}
	if k >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(k)
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(k-float64(lo))
}

// PrintNoise writes the rows as a table.
func PrintNoise(w io.Writer, rows []NoiseRow) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tmedian\tq1\tq3\tIQR/median\trange/median")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.5g\t%.5g\t%.3f\t%.3f\n",
			r.Workload, r.Metric, r.Unit, len(r.Values), r.Median, r.Q1, r.Q3, r.IQRShare, r.RangeShare)
	}
	return tw.Flush()
}
