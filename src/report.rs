//! Plain-text rendering of experiment results: figures (series of
//! points), bar groups, and tables — the shapes the paper's figures and
//! tables take.

use serde::{Deserialize, Serialize};

/// One (x, y) sample of a curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Independent variable (e.g. injection rate).
    pub x: f64,
    /// Dependent variable (e.g. latency in cycles).
    pub y: f64,
}

/// A labelled curve (one architecture's line in a figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Samples in x order.
    pub points: Vec<CurvePoint>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<CurvePoint>) -> Self {
        Series { label: label.into(), points }
    }

    /// The y value at a given x, if sampled.
    fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| (p.x - x).abs() < 1e-9).map(|p| p.y)
    }
}

/// A line-plot figure (Figs. 11(a)-(b), 12(a)-(b), 12(d)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Identifier, e.g. `"fig11a"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders the figure as an aligned text table: one row per x, one
    /// column per series.
    pub fn to_text(&self) -> String {
        let mut xs: Vec<f64> =
            self.series.iter().flat_map(|s| s.points.iter().map(|p| p.x)).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = format!("# {} — {}\n", self.id, self.title);
        out.push_str(&format!("{:>12}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("{:>12}", s.label));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{x:>12.3}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!("{y:>12.3}")),
                    None => out.push_str(&format!("{:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("({})\n", self.y_label));
        out
    }
}

/// A grouped-bar figure (Figs. 1, 2, 9, 11(c)-(d), 12(c), 13).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BarFigure {
    /// Identifier, e.g. `"fig11c"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Label of the group axis (e.g. "application").
    pub group_label: String,
    /// Bar labels within each group (e.g. architectures).
    pub bar_labels: Vec<String>,
    /// Groups: (group name, one value per bar label).
    pub groups: Vec<(String, Vec<f64>)>,
    /// Unit of the values.
    pub unit: String,
}

impl BarFigure {
    /// Renders as an aligned text table.
    pub fn to_text(&self) -> String {
        let group_w = self
            .groups
            .iter()
            .map(|(g, _)| g.len())
            .chain(std::iter::once(self.group_label.len()))
            .max()
            .unwrap_or(0)
            + 2;
        let col_w: Vec<usize> = self.bar_labels.iter().map(|b| (b.len() + 2).max(12)).collect();
        let mut out = format!("# {} — {} ({})\n", self.id, self.title, self.unit);
        out.push_str(&format!("{:>group_w$}", self.group_label));
        for (b, w) in self.bar_labels.iter().zip(&col_w) {
            out.push_str(&format!("{b:>w$}", w = w));
        }
        out.push('\n');
        for (group, values) in &self.groups {
            out.push_str(&format!("{group:>group_w$}"));
            for (v, w) in values.iter().zip(&col_w) {
                out.push_str(&format!("{v:>w$.3}", w = w));
            }
            out.push('\n');
        }
        out
    }

    /// The value of one bar.
    pub fn value(&self, group: &str, bar: &str) -> Option<f64> {
        let bi = self.bar_labels.iter().position(|b| b == bar)?;
        self.groups.iter().find(|(g, _)| g == group).map(|(_, v)| v[bi])
    }
}

/// A plain table (Tables 1–3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextTable {
    /// Identifier, e.g. `"table1"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (first cell is the row label).
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Renders as aligned text.
    pub fn to_text(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("# {} — {}\n", self.id, self.title);
        for (i, h) in self.headers.iter().enumerate() {
            out.push_str(&format!("{h:>width$}  ", width = widths[i]));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                out.push_str(&format!("{cell:>width$}  ", width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_all_series() {
        let fig = Figure {
            id: "figX".into(),
            title: "demo".into(),
            x_label: "load".into(),
            y_label: "cycles".into(),
            series: vec![
                Series::new(
                    "a",
                    vec![CurvePoint { x: 0.1, y: 10.0 }, CurvePoint { x: 0.2, y: 20.0 }],
                ),
                Series::new("b", vec![CurvePoint { x: 0.1, y: 11.0 }]),
            ],
        };
        let text = fig.to_text();
        assert!(text.contains("figX"));
        assert!(text.contains("10.000"));
        assert!(text.contains('-'), "missing samples render as dashes");
    }

    #[test]
    fn series_lookup() {
        let s = Series::new("a", vec![CurvePoint { x: 0.1, y: 5.0 }]);
        assert_eq!(s.y_at(0.1), Some(5.0));
        assert_eq!(s.y_at(0.3), None);
    }

    #[test]
    fn bar_figure_lookup_and_text() {
        let fig = BarFigure {
            id: "figY".into(),
            title: "bars".into(),
            group_label: "app".into(),
            bar_labels: vec!["2DB".into(), "3DM".into()],
            groups: vec![("tpcw".into(), vec![1.0, 0.7])],
            unit: "normalised".into(),
        };
        assert_eq!(fig.value("tpcw", "3DM"), Some(0.7));
        assert_eq!(fig.value("tpcw", "zzz"), None);
        assert!(fig.to_text().contains("tpcw"));
    }

    #[test]
    fn table_aligns_columns() {
        let t = TextTable {
            id: "t1".into(),
            title: "areas".into(),
            headers: vec!["component".into(), "2DB".into()],
            rows: vec![vec!["crossbar".into(), "230400".into()]],
        };
        let text = t.to_text();
        assert!(text.contains("crossbar"));
        assert!(text.contains("230400"));
    }
}
