//! Aligned ASCII tables for terminal output and experiment logs.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (text).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple table builder.
///
/// # Examples
///
/// ```
/// use refminer_report::{Align, Table};
///
/// let mut t = Table::new(vec!["Subsystem", "Bugs"]);
/// t.align(1, Align::Right);
/// t.row(vec!["drivers".into(), "182".into()]);
/// t.row(vec!["arch".into(), "156".into()]);
/// let text = t.render();
/// assert!(text.contains("drivers"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; headers.len()];
        Table {
            headers,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Sets the alignment of column `i`.
    pub fn align(&mut self, i: usize, a: Align) -> &mut Table {
        if i < self.aligns.len() {
            self.aligns[i] = a;
        }
        self
    }

    /// Right-aligns every column except the first.
    pub fn numeric(mut self) -> Table {
        for i in 1..self.aligns.len() {
            self.aligns[i] = Align::Right;
        }
        self
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Table {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Appends a separator row (rendered as a rule).
    pub fn rule(&mut self) -> &mut Table {
        self.rows.push(vec!["\u{0}".to_string()]);
        self
    }

    /// Number of data rows (rules excluded).
    pub fn len(&self) -> usize {
        self.rows.iter().filter(|r| r[0] != "\u{0}").count()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            if row[0] == "\u{0}" {
                continue;
            }
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, &w) in widths.iter().enumerate().take(cols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let padded = match self.aligns[i] {
                    Align::Left => format!(" {cell:<w$} "),
                    Align::Right => format!(" {cell:>w$} "),
                };
                line.push_str(&padded);
                if i + 1 < cols {
                    line.push('|');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&rule);
        out.push('\n');
        for row in &self.rows {
            if row[0] == "\u{0}" {
                out.push_str(&rule);
            } else {
                out.push_str(&fmt_row(row));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let quote = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            if row[0] == "\u{0}" {
                continue;
            }
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "count"]).numeric();
        t.row(vec!["drivers".into(), "588".into()]);
        t.row(vec!["net".into(), "152".into()]);
        t
    }

    #[test]
    fn renders_aligned_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // Numbers right-aligned: `588` and `152` end at the same column.
        let c588 = lines[2].find("588").unwrap() + 3;
        let c152 = lines[3].find("152").unwrap() + 3;
        assert_eq!(c588, c152);
    }

    #[test]
    fn csv_output() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "name,count");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x,y".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    fn rules_and_len() {
        let mut t = sample();
        t.rule();
        t.row(vec!["total".into(), "740".into()]);
        assert_eq!(t.len(), 3);
        let text = t.render();
        // Header rule + inserted rule.
        assert!(text.matches("--+--").count() >= 2);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only".into()]);
        assert!(t.render().contains("only"));
    }
}
