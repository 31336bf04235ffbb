package harness

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"

	"daredevil/internal/sim"
)

// table writes aligned rows to w.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// ms renders a duration as milliseconds with three significant digits.
func ms(d sim.Duration) string { return fmt.Sprintf("%.3f", d.Milliseconds()) }

// us renders a duration as microseconds.
func us(d sim.Duration) string { return fmt.Sprintf("%.2f", d.Microseconds()) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func u64(v uint64) string { return fmt.Sprintf("%d", v) }

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// export is one artifact of a demo: the writer that renders it and the
// slot its bytes land in.
type export struct {
	dst   *[]byte
	write func(io.Writer) error
}

// renderAll renders each export into its slot, stopping at the first error.
func renderAll(exports ...export) error {
	for _, e := range exports {
		var buf bytes.Buffer
		if err := e.write(&buf); err != nil {
			return err
		}
		*e.dst = buf.Bytes()
	}
	return nil
}
