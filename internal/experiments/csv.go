package experiments

import (
	"encoding/csv"
	"io"
)

// WriteCSV emits the table as CSV (header row first), so the regenerated
// figures can be fed straight into a plotting tool. Notes are not
// included; they are commentary, not data.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
