package experiment

import (
	"fmt"
	"io"
	"time"

	"shadowedit/internal/netsim"
	"shadowedit/internal/workload"
)

// PaperFigure3 holds the speedup factors the paper tabulates in Figure 3
// (ARPANET, speedup = E-time/S-time) for comparison against measured values.
var PaperFigure3 = map[int]map[float64]float64{
	10 * 1024:  {1: 13.5, 5: 9.3, 10: 6.5, 20: 3.7},
	50 * 1024:  {1: 22.5, 5: 11.9, 10: 7.1, 20: 4.3},
	100 * 1024: {1: 24.2, 5: 12.0, 10: 7.5, 20: 4.3},
	500 * 1024: {1: 24.9, 5: 12.5, 10: 7.6, 20: 4.3},
}

// Series is one plotted size: S-time per percent modified plus the E-time
// horizontal line.
type Series struct {
	Size   int
	ETime  time.Duration
	Points []Cycle
}

// TransferFigure is Figure 1 or 2: one Series per file size.
type TransferFigure struct {
	Title string
	Link  netsim.Spec
	Sizes []Series
}

// RunTransferFigure sweeps the paper's file sizes and modification
// percentages on the given link. Cells run concurrently (cfg.Workers); each
// (size, percent) cell is an independent rig with its own derived seed, and
// results assemble in sweep order, so the figure is byte-identical to a
// serial run.
func RunTransferFigure(cfg Config, title string, sizes []int, percents []float64) (*TransferFigure, error) {
	cfg = cfg.withDefaults()
	fig := &TransferFigure{Title: title, Link: cfg.Link}
	cells, err := runGrid(cfg, sizes, percents)
	if err != nil {
		return nil, err
	}
	for si, size := range sizes {
		series := Series{Size: size}
		for pi := range percents {
			cell := cells[si*len(percents)+pi]
			series.Points = append(series.Points, cell)
			if cell.ETime > series.ETime {
				series.ETime = cell.ETime
			}
		}
		fig.Sizes = append(fig.Sizes, series)
	}
	return fig, nil
}

// Render prints the figure as a text table: rows are modification
// percentages, columns are file sizes, entries are S-times, and a final row
// carries the E-time horizontal lines.
func (f *TransferFigure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s (%d bps, %v one-way latency)\n", f.Title, f.Link.BitsPerSecond, f.Link.Latency)
	fmt.Fprintf(w, "%-12s", "% modified")
	for _, s := range f.Sizes {
		fmt.Fprintf(w, " %14s", sizeLabel(s.Size))
	}
	fmt.Fprintln(w)
	if len(f.Sizes) == 0 {
		return
	}
	for i := range f.Sizes[0].Points {
		fmt.Fprintf(w, "%-12s", fmt.Sprintf("%g%%", f.Sizes[0].Points[i].Percent))
		for _, s := range f.Sizes {
			fmt.Fprintf(w, " %13.1fs", s.Points[i].STime.Seconds())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "E-time")
	for _, s := range f.Sizes {
		fmt.Fprintf(w, " %13.1fs", s.ETime.Seconds())
	}
	fmt.Fprintln(w)
}

// SpeedupTable is Figure 3: measured speedup factors next to the paper's.
type SpeedupTable struct {
	Cells []Cycle
}

// RunSpeedupTable sweeps Figure 3's grid on the ARPANET link. Cells run
// concurrently (cfg.Workers) and assemble in grid order, so the table is
// byte-identical to a serial run.
func RunSpeedupTable(cfg Config) (*SpeedupTable, error) {
	cells, err := runGrid(cfg.withDefaults(), workload.TableSizes, workload.TablePercents)
	if err != nil {
		return nil, err
	}
	return &SpeedupTable{Cells: cells}, nil
}

// runGrid runs RunCycle over sizes × percents, size-major, across
// cfg.Workers.
func runGrid(cfg Config, sizes []int, percents []float64) ([]Cycle, error) {
	cells := make([]Cycle, len(sizes)*len(percents))
	err := forEachCell(cfg.Workers, len(cells), func(i int) error {
		cell, err := RunCycle(cfg, sizes[i/len(percents)], percents[i%len(percents)])
		cells[i] = cell
		return err
	})
	return cells, err
}

// Render prints measured speedups with the paper's values alongside.
func (t *SpeedupTable) Render(w io.Writer) {
	fmt.Fprintln(w, "Speedup Factor = E-time / S-time (measured vs paper, ARPANET)")
	fmt.Fprintf(w, "%-10s", "File Size")
	for _, p := range workload.TablePercents {
		fmt.Fprintf(w, " %16s", fmt.Sprintf("%g%% modified", p))
	}
	fmt.Fprintln(w)
	for _, size := range workload.TableSizes {
		fmt.Fprintf(w, "%-10s", sizeLabel(size))
		for _, p := range workload.TablePercents {
			cell, ok := t.cell(size, p)
			if !ok {
				fmt.Fprintf(w, " %16s", "-")
				continue
			}
			paper := PaperFigure3[size][p]
			fmt.Fprintf(w, " %8.1f (%5.1f)", cell.Speedup(), paper)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(parenthesized values are the paper's Figure 3)")
}

func (t *SpeedupTable) cell(size int, percent float64) (Cycle, bool) {
	for _, c := range t.Cells {
		if c.Size == size && c.Percent == percent {
			return c, true
		}
	}
	return Cycle{}, false
}

func sizeLabel(size int) string {
	return fmt.Sprintf("%dk", size/1024)
}
