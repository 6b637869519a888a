//! Result output: aligned console tables and CSV files under the results
//! directory.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The CSV file behind a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Csv {
    /// Where it was written.
    pub path: PathBuf,
    /// Its first line.
    pub header: String,
}

/// A table an experiment produced: printed aligned to the console and,
/// when it has a [`Csv`], written under the results directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Console column names.
    pub columns: Vec<String>,
    /// Console cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
    /// The file holding the raw values, if the table has one.
    pub csv: Option<Csv>,
}

/// A measured value as the results CSVs write it.
pub(crate) fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Write a CSV file (header + lines) into `dir`, creating it if needed;
/// returns the path written.
pub(crate) fn write_csv(
    dir: &Path,
    name: &str,
    header: &str,
    lines: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "{header}")?;
    for line in lines {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    Ok(path)
}

/// Print an aligned table: a header row then data rows, column widths fit
/// to content.
pub(crate) fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        println!("{s}");
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_is_written() {
        let dir = std::env::temp_dir().join(format!("si-results-{}", std::process::id()));
        let p = write_csv(&dir, "test.csv", "a,b", &["1,2".into(), "3,4".into()]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(dir).ok();
    }
}
