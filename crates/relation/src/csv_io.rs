//! CSV import/export for [`Table`]s.
//!
//! The paper's datasets (hosp, uis) ship as delimited files; experiments in
//! `crates/eval` can persist generated datasets and repaired outputs so runs
//! are inspectable. Readers are buffered (`csv` buffers internally) and every
//! cell goes through the shared [`SymbolTable`] so a loaded table is
//! immediately usable by the rule engine.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::{Result, Schema, SymbolTable, Table};

/// Read a table from CSV text with a header row.
///
/// The header names become the schema attributes; `relation_name` names the
/// schema. Rows with a different arity than the header are rejected.
pub fn read_csv<R: Read>(
    mut reader: R,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    // Buffer the whole input up front: the table retains every cell anyway,
    // and a newline count gives a row estimate that lets the symbol table
    // and the cell storage allocate once instead of rehashing/reallocating
    // through a million-row load. (Quoted embedded newlines only make the
    // estimate generous — capacity is a hint, not a contract.)
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let estimated_rows = buf
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        .saturating_sub(1);
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .flexible(false)
        .from_reader(buf.as_slice());
    let headers = rdr.headers()?.clone();
    let schema = Schema::new(relation_name, headers.iter())?;
    symbols.reserve(estimated_rows);
    let mut table = Table::with_capacity(schema, estimated_rows);
    let mut row: Vec<crate::Symbol> = Vec::with_capacity(headers.len());
    for record in rdr.records() {
        let record = record?;
        row.clear();
        row.extend(record.iter().map(|cell| symbols.intern(cell)));
        table.push_row(&row)?;
    }
    Ok(table)
}

/// Read a table from a CSV file on disk.
pub fn read_csv_file<P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    let file = File::open(path)?;
    read_csv(file, relation_name, symbols)
}

/// Read only the header row of a CSV file, as a schema named
/// `relation_name` — what a streaming consumer needs before its first
/// record, without reading (or interning) the body.
pub fn read_csv_schema<P: AsRef<Path>>(path: P, relation_name: &str) -> Result<Schema> {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .from_reader(File::open(path)?);
    let headers = rdr.headers()?.clone();
    Schema::new(relation_name, headers.iter())
}

/// Write a table as CSV with a header row.
pub fn write_csv<W: Write>(writer: W, table: &Table, symbols: &SymbolTable) -> Result<()> {
    let mut wtr = csv::Writer::from_writer(writer);
    wtr.write_record(table.schema().attr_names())?;
    for i in 0..table.len() {
        wtr.write_record(table.row(i).iter().map(|&s| symbols.resolve(s)))?;
    }
    wtr.flush()?;
    Ok(())
}

/// Write a table to a CSV file on disk (buffered).
pub fn write_csv_file<P: AsRef<Path>>(path: P, table: &Table, symbols: &SymbolTable) -> Result<()> {
    let file = BufWriter::new(File::create(path)?);
    write_csv(file, table, symbols)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "country,capital\nChina,Beijing\nCanada,Ottawa\n";

    #[test]
    fn read_builds_schema_from_header() {
        let mut sy = SymbolTable::new();
        let t = read_csv(SAMPLE.as_bytes(), "Cap", &mut sy).unwrap();
        assert_eq!(t.schema().name(), "Cap");
        assert_eq!(t.schema().arity(), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_strs(&sy, 1), vec!["Canada", "Ottawa"]);
    }

    #[test]
    fn round_trip_preserves_content() {
        let mut sy = SymbolTable::new();
        let t = read_csv(SAMPLE.as_bytes(), "Cap", &mut sy).unwrap();
        let mut out = Vec::new();
        write_csv(&mut out, &t, &sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let t2 = read_csv(out.as_slice(), "Cap", &mut sy2).unwrap();
        assert_eq!(t.len(), t2.len());
        for i in 0..t.len() {
            assert_eq!(t.row_strs(&sy, i), t2.row_strs(&sy2, i));
        }
    }

    #[test]
    fn ragged_rows_rejected() {
        let bad = "a,b\n1\n";
        let mut sy = SymbolTable::new();
        assert!(read_csv(bad.as_bytes(), "R", &mut sy).is_err());
    }

    #[test]
    fn schema_read_stops_at_the_header() {
        let path = std::env::temp_dir().join(format!("csv_schema_{}.csv", std::process::id()));
        std::fs::write(&path, "a,b,c\n1,2,3\nragged\n").unwrap();
        let schema = read_csv_schema(&path, "R").unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(schema.name(), "R");
        assert_eq!(schema.attr_names().collect::<Vec<_>>(), ["a", "b", "c"]);
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let mut sy = SymbolTable::new();
        let schema = Schema::new("R", ["addr", "city"]).unwrap();
        let mut t = Table::new(schema);
        t.push_strs(&mut sy, &["12 Main St, Apt 4", "Doha"])
            .unwrap();
        let mut out = Vec::new();
        write_csv(&mut out, &t, &sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let t2 = read_csv(out.as_slice(), "R", &mut sy2).unwrap();
        assert_eq!(t2.row_strs(&sy2, 0)[0], "12 Main St, Apt 4");
    }

    #[test]
    fn file_round_trip() {
        let mut sy = SymbolTable::new();
        let t = read_csv(SAMPLE.as_bytes(), "Cap", &mut sy).unwrap();
        let dir = std::env::temp_dir().join("relation_csv_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cap.csv");
        write_csv_file(&path, &t, &sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let t2 = read_csv_file(&path, "Cap", &mut sy2).unwrap();
        assert_eq!(t2.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
