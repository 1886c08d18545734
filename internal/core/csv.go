package core

import (
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CSV emitters: every figure can also be exported in machine-readable form
// for external plotting. Columns mirror the paper's axes.

func writeCSV(rows [][]string) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	// csv.Writer on a strings.Builder cannot fail.
	_ = w.WriteAll(rows)
	w.Flush()
	return b.String()
}

func f(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// CSVFig3 renders a converter-validation sweep.
func CSVFig3(pts []Fig3Point) string {
	rows := [][]string{{"load_mA", "model_eff", "sim_eff", "model_drop_mV", "sim_drop_mV"}}
	for _, p := range pts {
		rows = append(rows, []string{f(p.LoadMA), f(p.ModelEff), f(p.SimEff), f(p.ModelDropMV), f(p.SimDropMV)})
	}
	return writeCSV(rows)
}

// CSVFig5 renders an EM-lifetime figure: one row per layer count, one
// column per series.
func CSVFig5(fig *Fig5) string {
	header := []string{"layers"}
	for _, s := range fig.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for i, l := range fig.Layers {
		row := []string{strconv.Itoa(l)}
		for _, s := range fig.Series {
			row = append(row, f(s.Values[i]))
		}
		rows = append(rows, row)
	}
	return writeCSV(rows)
}

// CSVFig6 renders the noise sweep: imbalance rows, converter-count
// columns, plus the regular reference lines as constant columns.
func CSVFig6(fig *Fig6) string {
	var counts []int
	for n := range fig.VS {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	var regs []string
	for name := range fig.RegularIRPct {
		regs = append(regs, name)
	}
	sort.Strings(regs)

	header := []string{"imbalance"}
	for _, n := range counts {
		header = append(header, fmt.Sprintf("vs_%dconv_ir_pct", n))
	}
	for _, name := range regs {
		header = append(header, fmt.Sprintf("reg_%s_ir_pct", strings.ToLower(name)))
	}
	rows := [][]string{header}
	for i, imb := range fig.Imbalances {
		row := []string{f(imb)}
		for _, n := range counts {
			row = append(row, f(fig.VS[n][i]))
		}
		for _, name := range regs {
			row = append(row, f(fig.RegularIRPct[name]))
		}
		rows = append(rows, row)
	}
	return writeCSV(rows)
}

// CSVFig7 renders the workload box-plot statistics.
func CSVFig7(fig *Fig7) string {
	rows := [][]string{{"app", "min", "q1", "median", "q3", "max", "max_imbalance"}}
	for _, r := range fig.Rows {
		rows = append(rows, []string{
			r.App, f(r.Stats.Min), f(r.Stats.Q1), f(r.Stats.Median),
			f(r.Stats.Q3), f(r.Stats.Max), f(r.MaxImbalance),
		})
	}
	return writeCSV(rows)
}

// CSVFig8 renders the efficiency sweep.
func CSVFig8(fig *Fig8) string {
	var counts []int
	for n := range fig.VS {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	header := []string{"imbalance"}
	for _, n := range counts {
		header = append(header, fmt.Sprintf("vs_%dconv_eff", n))
	}
	header = append(header, "reg_sc_eff")
	rows := [][]string{header}
	for i, imb := range fig.Imbalances {
		row := []string{f(imb)}
		for _, n := range counts {
			row = append(row, f(fig.VS[n][i]))
		}
		row = append(row, f(fig.RegularSC[i]))
		rows = append(rows, row)
	}
	return writeCSV(rows)
}
