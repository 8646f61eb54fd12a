//! Plain-text tables and CSV dumps for experiment output.

use std::fs;
use std::io::Write;
use std::path::Path;

use relation::csv_io::CsvWriter;
use relation::RelationError;

/// Print a titled, column-aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "\n== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
        .collect();
    let _ = writeln!(out, "{}", header_line.join("  "));
    let _ = writeln!(
        out,
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
    }
}

/// Write the same rows as CSV under `dir/name.csv` (creating `dir`).
pub fn write_csv(
    dir: &Path,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut w = CsvWriter::new(fs::File::create(&path)?);
    let io = |e: RelationError| std::io::Error::other(e.to_string());
    w.write_record(headers).map_err(io)?;
    for row in rows {
        w.write_record(row).map_err(io)?;
    }
    w.finish().map_err(io)?;
    Ok(path)
}

/// Emit a table to stdout and, when `out_dir` is set, to CSV.
pub fn emit(
    out_dir: Option<&Path>,
    name: &str,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) {
    print_table(title, headers, rows);
    if let Some(dir) = out_dir {
        match write_csv(dir, name, headers, rows) {
            Ok(path) => println!("  -> {}", path.display()),
            Err(e) => eprintln!("  !! csv write failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips_escaping() {
        let dir = std::env::temp_dir().join("eval_report_test");
        let rows = vec![vec!["a,b".to_string(), "plain".to_string()]];
        let path = write_csv(&dir, "t", &["x", "y"], &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n\"a,b\",plain\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into()], vec!["1".into(), "2".into(), "3".into()]],
        );
    }
}
