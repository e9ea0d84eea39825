// Package trace holds the experiment-result data model shared by the
// bench harness and cmd/experiments: named series of (x, y) points with
// machine-readable CSV/JSON export and terminal-friendly ASCII charts.
//
// The paper communicates its evaluation through line charts (Figures
// 4–10). The harness's tabwriter tables carry the same numbers, but shape
// claims ("ASTI's curve stays below ATEUC's", "runtime decreases with η
// for ATEUC and increases for the adaptive algorithms") are easier to
// check visually; Chart renders a good-enough log/linear plot with pure
// stdlib, straight into terminal output.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Point is one measurement.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is a named sequence of points (one algorithm's curve).
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Figure is a titled collection of series over shared axes.
type Figure struct {
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
}

// AddSeries appends a series and returns a pointer for further Adds.
func (f *Figure) AddSeries(name string) *Series {
	f.Series = append(f.Series, Series{Name: name})
	return &f.Series[len(f.Series)-1]
}

// WriteJSON emits the figure as one indented JSON document.
func (f *Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON parses a figure written by WriteJSON.
func ReadJSON(r io.Reader) (*Figure, error) {
	var f Figure
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: decoding figure: %w", err)
	}
	return &f, nil
}

// WriteCSV emits the long-form table (series, x, y), one row per point.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", f.XLabel, f.YLabel}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			rec := []string{
				s.Name,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a long-form table written by WriteCSV.
func ReadCSV(r io.Reader) (*Figure, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, errors.New("trace: empty csv")
	}
	header := rows[0]
	if len(header) != 3 || header[0] != "series" {
		return nil, fmt.Errorf("trace: unexpected csv header %v", header)
	}
	f := &Figure{XLabel: header[1], YLabel: header[2]}
	idx := map[string]int{}
	for rn, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 3", rn+2, len(row))
		}
		x, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d x: %w", rn+2, err)
		}
		y, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d y: %w", rn+2, err)
		}
		i, ok := idx[row[0]]
		if !ok {
			i = len(f.Series)
			idx[row[0]] = i
			f.Series = append(f.Series, Series{Name: row[0]})
		}
		f.Series[i].Points = append(f.Series[i].Points, Point{X: x, Y: y})
	}
	return f, nil
}

// ChartOptions configures ASCII rendering.
type ChartOptions struct {
	// Width and Height are the plot-area size in characters (defaults
	// 64×20).
	Width, Height int
	// LogY plots log10(y) (figures 5, 7 and the degree distributions).
	LogY bool
}

// seriesMarks assigns one mark per series, cycling if needed.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart renders the figure as an ASCII scatter/line chart with a legend.
// Series are overlaid; later series win collisions (collisions are marked
// with their own glyph, not blended — good enough for shape inspection).
func (f *Figure) Chart(w io.Writer, opts ChartOptions) error {
	width, height := opts.Width, opts.Height
	if width == 0 {
		width = 64
	}
	if height == 0 {
		height = 20
	}
	if width < 8 || height < 4 {
		return fmt.Errorf("trace: chart area %dx%d too small", width, height)
	}
	var xs, ys []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			y := p.Y
			if opts.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			xs = append(xs, p.X)
			ys = append(ys, y)
		}
	}
	if len(xs) == 0 {
		return errors.New("trace: nothing to chart")
	}
	xmin, xmax := minMax(xs)
	ymin, ymax := minMax(ys)
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = make([]byte, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	plot := func(x, y float64, mark byte) {
		cx := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
		cy := int(math.Round((y - ymin) / (ymax - ymin) * float64(height-1)))
		grid[height-1-cy][cx] = mark
	}
	for si, s := range f.Series {
		mark := seriesMarks[si%len(seriesMarks)]
		pts := append([]Point(nil), s.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		var prevX, prevY float64
		havePrev := false
		for _, p := range pts {
			y := p.Y
			if opts.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			if havePrev {
				// Linear interpolation between consecutive points.
				steps := width
				for t := 1; t < steps; t++ {
					fr := float64(t) / float64(steps)
					ix := prevX + fr*(p.X-prevX)
					iy := prevY + fr*(y-prevY)
					plot(ix, iy, '.')
				}
			}
			prevX, prevY, havePrev = p.X, y, true
		}
		// Markers drawn after connecting dots so they stay visible.
		for _, p := range pts {
			y := p.Y
			if opts.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			plot(p.X, y, mark)
		}
	}

	if f.Title != "" {
		fmt.Fprintf(w, "%s\n", f.Title)
	}
	yTop, yBot := ymax, ymin
	unit := ""
	if opts.LogY {
		unit = " (log10)"
	}
	fmt.Fprintf(w, "%s%s\n", f.YLabel, unit)
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.3g ", yTop)
		case height - 1:
			label = fmt.Sprintf("%7.3g ", yBot)
		}
		fmt.Fprintf(w, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(w, "        +%s\n", repeat('-', width))
	fmt.Fprintf(w, "        %-*.3g%*.3g  %s\n", width/2, xmin, width/2, xmax, f.XLabel)
	for si, s := range f.Series {
		fmt.Fprintf(w, "  %c %s\n", seriesMarks[si%len(seriesMarks)], s.Name)
	}
	return nil
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
