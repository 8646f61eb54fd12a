//! CSV import/export — the one module that knows the CSV format.
//!
//! One record loop ([`CsvReader`]) interns every cell through a
//! [`SymbolTable`] straight into a [`CsvTable`]: the columnar
//! [`ColumnTable`] the repair paths (`fixctl`, `fixd`, the stream) run
//! on, or the row-major [`Table`] the reference oracles, `eval` and the
//! analyses use. One record writer ([`CsvWriter`]) renders either back,
//! quoting fields that need it.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::{AttrId, ColumnTable, Result, Schema, Symbol, SymbolTable, Table};

/// Cell storage the reader fills record by record and the writer renders
/// row by row.
pub trait CsvTable: Sized {
    /// An empty table over `schema` with room for `rows` rows.
    fn with_capacity(schema: Schema, rows: usize) -> Self;
    /// The table's schema.
    fn schema(&self) -> &Schema;
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Append a row of interned cells.
    fn push_row(&mut self, row: &[Symbol]) -> Result<()>;
    /// Read one cell.
    fn cell(&self, row: usize, attr: AttrId) -> Symbol;
}

// Both layouts have these as inherent methods; the trait only names them.
macro_rules! impl_csv_table {
    ($layout:ident) => {
        impl CsvTable for $layout {
            fn with_capacity(schema: Schema, rows: usize) -> Self {
                $layout::with_capacity(schema, rows)
            }
            fn schema(&self) -> &Schema {
                $layout::schema(self)
            }
            fn num_rows(&self) -> usize {
                $layout::len(self)
            }
            fn push_row(&mut self, row: &[Symbol]) -> Result<()> {
                $layout::push_row(self, row)
            }
            fn cell(&self, row: usize, attr: AttrId) -> Symbol {
                $layout::cell(self, row, attr)
            }
        }
    };
}
impl_csv_table!(Table);
impl_csv_table!(ColumnTable);

/// A CSV source positioned after its header row. Records of a different
/// arity than the header are rejected.
pub struct CsvReader<R: Read> {
    rdr: csv::Reader<R>,
    header: Vec<String>,
}

impl<R: Read> CsvReader<R> {
    /// Read the header row (empty for an empty input).
    pub fn new(reader: R) -> Result<Self> {
        let mut rdr = csv::ReaderBuilder::new()
            .has_headers(true)
            .flexible(false)
            .from_reader(reader);
        let header = rdr.headers()?.iter().map(str::to_string).collect();
        Ok(CsvReader { rdr, header })
    }

    /// The header's column names, in file order.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The header as a schema named `relation_name`.
    pub fn schema(&self, relation_name: &str) -> Result<Schema> {
        Schema::new(relation_name, self.header.iter().map(String::as_str))
    }

    /// Intern up to `max_rows` more records and append them to `table`;
    /// returns how many were appended (0 at end of input).
    pub fn read_rows<T: CsvTable>(
        &mut self,
        symbols: &mut SymbolTable,
        table: &mut T,
        max_rows: usize,
    ) -> Result<usize> {
        let mut row: Vec<Symbol> = Vec::with_capacity(self.header.len());
        let mut records = self.rdr.records();
        let mut n = 0;
        while n < max_rows {
            let Some(record) = records.next() else { break };
            row.clear();
            row.extend(record?.iter().map(|cell| symbols.intern(cell)));
            table.push_row(&row)?;
            n += 1;
        }
        Ok(n)
    }
}

/// Read a whole CSV input with a header row into a `T`; the header names
/// become the attributes of a schema named `relation_name`.
pub fn read_csv_as<T: CsvTable, R: Read>(
    mut reader: R,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<T> {
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
    let mut rdr = CsvReader::new(buf.as_slice())?;
    symbols.reserve(estimated_rows);
    let mut table = T::with_capacity(rdr.schema(relation_name)?, estimated_rows);
    rdr.read_rows(symbols, &mut table, usize::MAX)?;
    Ok(table)
}

/// Read a whole CSV file into a `T` ([`read_csv_as`]).
pub fn read_csv_file_as<T: CsvTable, P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<T> {
    read_csv_as(File::open(path)?, relation_name, symbols)
}

/// Read a row-major [`Table`] from CSV text with a header row.
pub fn read_csv<R: Read>(
    reader: R,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    read_csv_as(reader, relation_name, symbols)
}

/// Read a row-major [`Table`] from a CSV file on disk.
pub fn read_csv_file<P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    read_csv_file_as(path, relation_name, symbols)
}

/// Read only the header row of a CSV file, as a schema named
/// `relation_name` — what a streaming consumer needs before its first
/// record, without reading (or interning) the body.
pub fn read_csv_schema<P: AsRef<Path>>(path: P, relation_name: &str) -> Result<Schema> {
    CsvReader::new(File::open(path)?)?.schema(relation_name)
}

/// A CSV sink, one record per call; fields containing a delimiter, quote
/// or newline are quoted. [`CsvWriter::finish`] flushes.
pub struct CsvWriter<W: Write> {
    wtr: csv::Writer<W>,
}

impl<W: Write> CsvWriter<W> {
    /// Wrap `writer` (buffered internally).
    pub fn new(writer: W) -> Self {
        CsvWriter {
            wtr: csv::Writer::from_writer(writer),
        }
    }

    /// Write one record of string fields.
    pub fn write_record<I: IntoIterator<Item = S>, S: AsRef<str>>(
        &mut self,
        record: I,
    ) -> Result<()> {
        Ok(self.wtr.write_record(record)?)
    }

    /// Write every row of `table` in attribute order, without a header.
    pub fn write_rows<T: CsvTable>(&mut self, table: &T, symbols: &SymbolTable) -> Result<()> {
        for i in 0..table.num_rows() {
            let attrs = table.schema().attr_ids();
            self.write_record(attrs.map(|a| symbols.resolve(table.cell(i, a))))?;
        }
        Ok(())
    }

    /// Flush everything written.
    pub fn finish(mut self) -> Result<()> {
        Ok(self.wtr.flush()?)
    }
}

/// Write a table as CSV with a header row.
pub fn write_csv<T: CsvTable, W: Write>(writer: W, table: &T, symbols: &SymbolTable) -> Result<()> {
    let mut wtr = CsvWriter::new(writer);
    wtr.write_record(table.schema().attr_names())?;
    wtr.write_rows(table, symbols)?;
    wtr.finish()
}

/// Write a table to a CSV file on disk (buffered).
pub fn write_csv_file<T: CsvTable, P: AsRef<Path>>(
    path: P,
    table: &T,
    symbols: &SymbolTable,
) -> Result<()> {
    write_csv(BufWriter::new(File::create(path)?), table, symbols)
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
        assert!(read_csv_as::<ColumnTable, _>(bad.as_bytes(), "R", &mut sy).is_err());
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

    /// The columnar read holds the cells (and symbol ids) the row-major
    /// read does, and both write back the same bytes.
    #[test]
    fn columnar_read_and_write_match_row_major() {
        let text = "addr,note\n\"12 Main, Apt 4\",\"said \"\"hi\"\"\"\nDoha,x\n";
        let mut sy = SymbolTable::new();
        let rows = read_csv(text.as_bytes(), "R", &mut sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let cols: ColumnTable = read_csv_as(text.as_bytes(), "R", &mut sy2).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(rows.diff_cells(&cols.to_table()).unwrap(), 0);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_csv(&mut a, &rows, &sy).unwrap();
        write_csv(&mut b, &cols, &sy2).unwrap();
        assert_eq!(a, b);
        assert_eq!(String::from_utf8(b).unwrap(), text);
    }
}
