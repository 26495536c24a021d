//! Plain-text rendering: fixed-width tables and ASCII time-series plots.
//!
//! Every report table is a list of `Row`s. A cell is added once, with
//! its column header, its JSON key (if it has one), its value and the
//! `Form` its text takes; `table` renders the text table and each row's
//! JSON object from those same cells.

use serde::Serialize;
use serde_json::{Map, Value};
use std::fmt::Write as _;

/// How a cell's value prints in the text table. Its JSON form is the
/// value itself.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Form {
    /// A string as it is, an integer in decimal.
    Plain,
    /// A number with this many decimals; a missing one (`None`, which
    /// is `null` in JSON) prints `NaN`.
    Dec(usize),
    /// A fraction as a percentage (× 100), with this many decimals.
    Pct(usize),
    /// A byte count in MB (÷ 10⁶), with this many decimals.
    Mb(usize),
    /// A list of strings, joined by this separator.
    Join(&'static str),
}

impl Form {
    fn text(self, value: &Value) -> String {
        let num = || match value {
            Value::Null => f64::NAN,
            v => v
                .as_f64()
                .unwrap_or_else(|| panic!("{v:?} is not a number")),
        };
        match self {
            Form::Plain => match value {
                Value::String(s) => s.clone(),
                Value::Number(n) => n.to_string(),
                v => panic!("{v:?} has no plain text form"),
            },
            Form::Dec(p) => format!("{:.p$}", num()),
            Form::Pct(p) => format!("{:.p$}", num() * 100.0),
            Form::Mb(p) => format!("{:.p$}", num() / 1e6),
            Form::Join(sep) => {
                let items = value.as_array().expect("a list to join");
                let items: Vec<String> = items.iter().map(|v| Form::Plain.text(v)).collect();
                items.join(sep)
            }
        }
    }
}

/// One row of a report table, built a cell at a time.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Row {
    headers: Vec<&'static str>,
    cells: Vec<String>,
    json: Map,
}

impl Row {
    /// Adds a column: `value` prints under `header` in `form` and, unless
    /// `key` is `None`, also goes into the row's JSON as `key`.
    #[must_use]
    pub(crate) fn cell(
        mut self,
        header: &'static str,
        key: impl Into<Option<&'static str>>,
        value: impl Serialize,
        form: Form,
    ) -> Row {
        let value = value.to_value();
        self.headers.push(header);
        self.cells.push(form.text(&value));
        match key.into() {
            Some(key) => self.json(key, value),
            None => self,
        }
    }

    /// Adds `value` to the row's JSON only, as `key`.
    #[must_use]
    pub(crate) fn json(mut self, key: &'static str, value: impl Serialize) -> Row {
        let old = self.json.insert(key.to_string(), value.to_value());
        assert!(old.is_none(), "JSON key `{key}` given twice");
        self
    }
}

/// Renders `rows` as one fixed-width table under their headers, and
/// returns it with each row's JSON object, in row order.
///
/// # Panics
/// If a row's columns differ from the first row's.
pub(crate) fn table(rows: impl IntoIterator<Item = Row>) -> (String, Vec<Value>) {
    let mut headers: Option<Vec<&str>> = None;
    let (mut cells, mut json) = (Vec::new(), Vec::new());
    for row in rows {
        let headers = headers.get_or_insert_with(|| row.headers.clone());
        assert!(
            row.headers == *headers,
            "ragged row: columns {:?} under headers {headers:?}",
            row.headers
        );
        cells.push(row.cells);
        json.push(Value::Object(row.json));
    }
    (grid(&headers.unwrap_or_default(), &cells), json)
}

/// Lays `rows` out under `headers`, each column as wide as its widest
/// cell.
fn grid(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
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

    use Form::{Dec, Join, Mb, Pct, Plain};

    #[test]
    fn table_alignment() {
        let combo = |name: &str, kbps: u64| {
            let row = Row::default().cell("Combo", "combo", name, Plain);
            row.cell("Kbps", "kbps", kbps, Plain)
        };
        let (t, _) = table([combo("V1+A1", 253), combo("V6+A3", 4838)]);
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
    #[should_panic(expected = "ragged row")]
    fn table_rejects_ragged_rows() {
        let a = |text: &str| Row::default().cell("a", None, text, Plain);
        let _ = table([a("x").cell("b", None, "y", Plain), a("only-one")]);
    }

    #[test]
    fn cells_can_be_text_only_or_json_only() {
        let row = Row::default()
            .cell("Track", "track", "V1", Plain)
            .cell("Detail", None, "low", Plain)
            .json("seeds", 3u64);
        let (text, json) = table([row]);
        assert!(text.contains("| Track | Detail |"), "{text}");
        assert!(text.contains("| V1    | low    |"), "{text}");
        assert!(!text.contains('3'), "a JSON-only cell printed: {text}");
        let json = serde_json::to_string(&json).expect("serialize");
        assert_eq!(json, r#"[{"seeds":3,"track":"V1"}]"#);
    }

    #[test]
    fn a_missing_value_is_nan_in_text_and_null_in_json() {
        let row = Row::default().cell("Startup s", "startup_s", None::<f64>, Dec(2));
        let (text, json) = table([row]);
        assert!(text.contains("| NaN       |"), "{text}");
        assert_eq!(json[0]["startup_s"], Value::Null);
    }

    #[test]
    fn each_cell_prints_in_its_own_form() {
        let x = 1.256;
        let row = Row::default()
            .cell("a", "a", x, Dec(0))
            .cell("b", None, x, Dec(1))
            .cell("c", None, x, Dec(2))
            .cell("ratio", "ratio", 0.4567, Pct(1))
            .cell("MB", "bytes", 2_345_678u64, Mb(1))
            .cell("Audio", "audio", ["A1", "A3"], Join("/"));
        let (text, json) = table([row]);
        assert!(
            text.contains("| 1 | 1.3 | 1.26 | 45.7  | 2.3 | A1/A3 |"),
            "{text}"
        );
        // JSON keeps each value whole, in its own type.
        assert_eq!(json[0]["a"], x);
        assert_eq!(json[0]["ratio"], 0.4567);
        assert_eq!(json[0]["bytes"], 2_345_678u64);
        assert_eq!(json[0]["audio"], Value::from(vec!["A1", "A3"]));
    }

    #[test]
    #[should_panic(expected = "JSON key `score` given twice")]
    fn a_json_key_is_given_once() {
        let _ = Row::default()
            .cell("QoE", "score", 1.0, Dec(2))
            .json("score", 2.0);
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
        let row = Row::default().cell("k", None, "a", Plain);
        let (t, _) = table([row.cell("value", None, 1u64, Plain)]);
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
        let t = grid(&["Metric", "Value"], &[]);
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
