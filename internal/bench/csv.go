package bench

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"snode/internal/query"
)

// WriteCSV serializes experiment results as CSV files under dir, one
// file per table/figure, for external plotting.

func writeCSVFile(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
func itoa(v int64) string   { return strconv.FormatInt(v, 10) }

// ScalabilityCSV writes the Figure 9/10 series.
func ScalabilityCSV(dir string, rows []Fig9Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			itoa(int64(r.Pages)), itoa(int64(r.Supernodes)), itoa(r.Superedges),
			itoa(r.SupernodeGraphBytes), ftoa(r.BitsPerEdge),
		}
	}
	return writeCSVFile(dir, "fig9_fig10.csv",
		[]string{"pages", "supernodes", "superedges", "supergraph_bytes", "bits_per_edge"}, out)
}

// CompressionCSV writes Table 1.
func CompressionCSV(dir string, rows []Table1Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Scheme, ftoa(r.BPE), ftoa(r.BPET), itoa(r.Max8GB), itoa(r.Max8GBT)}
	}
	return writeCSVFile(dir, "table1.csv",
		[]string{"scheme", "bits_per_edge_wg", "bits_per_edge_wgt", "max_pages_8gb", "max_pages_8gb_t"}, out)
}

// AccessCSV writes Table 2.
func AccessCSV(dir string, rows []Table2Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Scheme, ftoa(r.SeqNsEdge), ftoa(r.RandNsEdge), ftoa(r.RandNsDecoded)}
	}
	return writeCSVFile(dir, "table2.csv",
		[]string{"scheme", "seq_ns_per_edge", "rand_ns_per_edge", "rand_ns_per_decoded_edge"}, out)
}

// QueriesCSV writes Figure 11.
func QueriesCSV(dir string, res *Fig11Result) error {
	var out [][]string
	for _, c := range res.Cells {
		out = append(out, []string{
			fmt.Sprintf("Q%d", c.Query), c.Scheme,
			itoa(c.Nav.Nanoseconds()), itoa(c.CPU.Nanoseconds()), itoa(c.IO.Nanoseconds()),
			itoa(c.Loads),
		})
	}
	if err := writeCSVFile(dir, "fig11.csv",
		[]string{"query", "scheme", "nav_ns", "cpu_ns", "io_ns", "graphs_loaded"}, out); err != nil {
		return err
	}
	var red [][]string
	for _, q := range query.All() {
		red = append(red, []string{fmt.Sprintf("Q%d", q), ftoa(res.Reduction[q])})
	}
	return writeCSVFile(dir, "fig11_reduction.csv", []string{"query", "reduction_pct"}, red)
}

// BufferSweepCSV writes Figure 12.
func BufferSweepCSV(dir string, rows []Fig12Row) error {
	var out [][]string
	for _, r := range rows {
		rec := []string{itoa(r.BudgetKB)}
		for _, q := range fig12Queries() {
			rec = append(rec, itoa(r.Nav[q].Nanoseconds()))
		}
		out = append(out, rec)
	}
	header := []string{"buffer_kb"}
	for _, q := range fig12Queries() {
		header = append(header, fmt.Sprintf("q%d_nav_ns", q))
	}
	return writeCSVFile(dir, "fig12.csv", header, out)
}

// AblationsCSV writes the ablation table.
func AblationsCSV(dir string, rows []AblationRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Name, ftoa(r.BitsPerEdge), itoa(int64(r.Supernodes)), itoa(r.Superedges)}
	}
	return writeCSVFile(dir, "ablation.csv",
		[]string{"variant", "bits_per_edge", "supernodes", "superedges"}, out)
}
