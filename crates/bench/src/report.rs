//! Plain-text rendering: fixed-width tables and ASCII time-series plots.

use std::fmt::Write as _;

/// Renders a fixed-width table with a header row.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            let _ = write!(line, " {cell:w$} |");
        }
        line.push('\n');
        line
    };
    let sep = {
        let mut line = String::from("+");
        for w in &widths {
            line.push_str(&"-".repeat(w + 2));
            line.push('+');
        }
        line.push('\n');
        line
    };
    out.push_str(&sep);
    out.push_str(&fmt_row(
        &headers.iter().map(ToString::to_string).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out.push_str(&sep);
    out
}

/// One plotted series: a glyph and its (x, y) points.
pub struct Series<'a> {
    /// Single-character marker.
    pub glyph: char,
    /// Legend label.
    pub label: &'a str,
    /// Data points (x ascending not required; NaNs rejected).
    pub points: &'a [(f64, f64)],
}

/// Renders series into a `width`×`height` ASCII grid with axis labels.
/// Later series overdraw earlier ones where they collide.
pub fn ascii_plot(title: &str, series: &[Series<'_>], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "plot too small");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    let mut out = format!("{title}\n");
    if all.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    for (x, y) in &all {
        assert!(x.is_finite() && y.is_finite(), "non-finite data point");
    }
    let (mut x0, mut x1) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.0), hi.max(p.0))
    });
    let (mut y0, mut y1) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.1), hi.max(p.1))
    });
    if x1 <= x0 {
        x1 = x0 + 1.0;
    }
    if y1 <= y0 {
        y1 = y0 + 1.0;
    }
    // A little headroom on y so the top row isn't glued to the frame.
    let pad = (y1 - y0) * 0.05;
    y0 -= pad;
    y1 += pad;
    if x0 > 0.0 && x0 < (x1 - x0) * 0.1 {
        x0 = 0.0; // start time axes at zero when they nearly do
    }

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in s.points {
            let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            let cx = cx.min(width - 1);
            let cy = (height - 1) - cy.min(height - 1);
            grid[cy][cx] = s.glyph;
        }
    }

    let ylab_hi = format!("{y1:>9.1}");
    let ylab_lo = format!("{y0:>9.1}");
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            ylab_hi.clone()
        } else if i == height - 1 {
            ylab_lo.clone()
        } else {
            " ".repeat(9)
        };
        let _ = writeln!(out, "{label} |{}|", row.iter().collect::<String>());
    }
    let _ = write!(
        out,
        "{} +{}+\n{} {:<w$.1}{:>r$.1}\n",
        " ".repeat(9),
        "-".repeat(width),
        " ".repeat(10),
        x0,
        x1,
        w = width / 2,
        r = width - width / 2,
    );
    let legend: Vec<String> = series
        .iter()
        .map(|s| format!("{} = {}", s.glyph, s.label))
        .collect();
    let _ = writeln!(out, "{} {}", " ".repeat(10), legend.join(", "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["Combo", "Kbps"],
            &[
                vec!["V1+A1".into(), "253".into()],
                vec!["V6+A3".into(), "4838".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[1].contains("Combo"));
        assert!(lines[3].contains("V1+A1"));
        // All body lines share the same width.
        assert!(lines
            .iter()
            .all(|l| l.chars().count() == lines[0].chars().count()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn plot_contains_glyphs_and_legend() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, (i % 7) as f64)).collect();
        let p = ascii_plot(
            "demo",
            &[Series {
                glyph: 'v',
                label: "video",
                points: &pts,
            }],
            40,
            8,
        );
        assert!(p.starts_with("demo\n"));
        assert!(p.contains('v'));
        assert!(p.contains("v = video"));
    }

    #[test]
    fn plot_handles_flat_series() {
        let pts = [(0.0, 500.0), (10.0, 500.0), (20.0, 500.0)];
        let p = ascii_plot(
            "flat",
            &[Series {
                glyph: 'e',
                label: "estimate",
                points: &pts,
            }],
            30,
            6,
        );
        assert!(p.contains('e'));
    }

    #[test]
    fn plot_empty_series() {
        let p = ascii_plot(
            "none",
            &[Series {
                glyph: 'x',
                label: "x",
                points: &[],
            }],
            30,
            6,
        );
        assert!(p.contains("(no data)"));
    }

    #[test]
    fn table_golden_string() {
        let t = table(&["k", "value"], &[vec!["a".into(), "1".into()]]);
        assert_eq!(
            t,
            "+---+-------+\n\
             | k | value |\n\
             +---+-------+\n\
             | a | 1     |\n\
             +---+-------+\n"
        );
    }

    #[test]
    fn table_with_no_rows_renders_header_only() {
        let t = table(&["Metric", "Value"], &[]);
        assert_eq!(
            t,
            "+--------+-------+\n\
             | Metric | Value |\n\
             +--------+-------+\n\
             +--------+-------+\n"
        );
    }

    #[test]
    fn plot_single_point() {
        let pts = [(5.0, 10.0)];
        let p = ascii_plot(
            "dot",
            &[Series {
                glyph: '*',
                label: "one",
                points: &pts,
            }],
            16,
            4,
        );
        // A degenerate x/y range widens to a unit span instead of dividing
        // by zero; the point lands somewhere inside the frame.
        assert!(p.contains('*'));
        assert!(p.contains("* = one"));
    }

    #[test]
    #[should_panic(expected = "non-finite data point")]
    fn plot_rejects_nan() {
        let pts = [(0.0, 1.0), (1.0, f64::NAN)];
        ascii_plot(
            "bad",
            &[Series {
                glyph: 'x',
                label: "x",
                points: &pts,
            }],
            20,
            5,
        );
    }

    #[test]
    #[should_panic(expected = "non-finite data point")]
    fn plot_rejects_infinity() {
        let pts = [(f64::INFINITY, 1.0)];
        ascii_plot(
            "bad",
            &[Series {
                glyph: 'x',
                label: "x",
                points: &pts,
            }],
            20,
            5,
        );
    }

    #[test]
    #[should_panic(expected = "plot too small")]
    fn plot_rejects_tiny_grid() {
        ascii_plot("tiny", &[], 8, 2);
    }

    #[test]
    fn two_series_overdraw() {
        let a = [(0.0, 0.0), (1.0, 1.0)];
        let b = [(0.0, 1.0), (1.0, 0.0)];
        let p = ascii_plot(
            "xy",
            &[
                Series {
                    glyph: 'a',
                    label: "a",
                    points: &a,
                },
                Series {
                    glyph: 'b',
                    label: "b",
                    points: &b,
                },
            ],
            20,
            5,
        );
        assert!(p.contains('a') && p.contains('b'));
    }
}
