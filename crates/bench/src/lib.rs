//! # vt-bench — the experiment harness
//!
//! [`experiments`] holds the paper's seventeen tables and figures as
//! data; the `vtfig` binary runs any of them: it prints each table or
//! ASCII figure, writes each machine-readable JSON record under
//! `results/`, and checks each acceptance criterion from `DESIGN.md §5`,
//! simulating every distinct cell once across all cores. The other
//! binaries (`vtprof`, `vtdiff`, `vtbench`, `vtsweep`, `vttrace`) are
//! profiling and regression tools.
//!
//! ```text
//! cargo run --release -p vt-bench --bin vtfig                       # paper scale
//! cargo run --release -p vt-bench --bin vtfig -- fig03_speedup --quick
//! ```
#![forbid(unsafe_code)]

pub mod cli;
pub mod cpi;
pub mod experiments;
pub mod hotspot;
pub mod record;

use vt_core::{CoreConfig, MemConfig};
use vt_workloads::Scale;

/// Common experiment context: problem scale and hardware configuration.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Quick mode (CI smoke runs): shorter sensitivity sweeps; `new` also
    /// picks a reduced `scale`.
    pub quick: bool,
    /// The problem scale experiments run at.
    pub scale: Scale,
    /// Core configuration shared by every run.
    pub core: CoreConfig,
    /// Memory configuration shared by every run.
    pub mem: MemConfig,
}

impl Harness {
    /// The default machine at paper scale or, with `quick`, at a scale
    /// that still oversubscribes every SM (the phenomenon under study
    /// needs more CTAs than the scheduling limit admits) but with fewer
    /// waves and shorter inner loops.
    pub fn new(quick: bool) -> Harness {
        Harness {
            quick,
            scale: if quick {
                Scale {
                    ctas: 240,
                    iters: 4,
                }
            } else {
                Scale::paper()
            },
            core: CoreConfig::default(),
            mem: MemConfig::default(),
        }
    }
}

/// Geometric mean of positive values (the paper's averaging convention
/// for speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A fixed-width ASCII horizontal bar for figure-style output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let max = if max <= 0.0 { 1.0 } else { max };
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    let mut s = "█".repeat(n);
    s.push_str(&" ".repeat(width - n));
    s
}

/// A minimal aligned-column table renderer.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(out.chars().count().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(2.0, 1.0, 4), "████");
        assert_eq!(bar(0.0, 1.0, 4), "    ");
        assert_eq!(bar(0.5, 1.0, 4), "██  ");
        assert_eq!(bar(1.0, 0.0, 2).chars().count(), 2);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a     "));
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains('x'));
    }

    /// The figures compare the architectures in this order.
    #[test]
    fn standard_archs_are_the_paper_comparison() {
        let archs = vt_core::Architecture::standard();
        assert_eq!(archs.len(), 4);
        assert_eq!(archs[0].label(), "baseline");
        assert_eq!(archs[1].label(), "vt");
    }
}
