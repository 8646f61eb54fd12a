//! Columnar table storage: one dense `Vec<Symbol>` per attribute.
//!
//! The repair semantics only ever read a tuple's projection on the
//! relevant-attribute closure, so a column-major layout turns signature
//! gathering into one tight integer scan per relevant attribute instead
//! of a strided walk across full rows. [`ColumnTable`] is the lossless
//! column-major twin of [`Table`]: conversion either way is a single
//! pass over the cells and `ColumnTable::from(t).to_table() == t` cell
//! for cell.

use crate::{AttrId, RelationError, Result, Schema, Symbol, Table};

/// A table stored column-major: `columns[a][i]` is row `i`'s value for
/// attribute `a`. `columns.len()` always equals the schema arity (which
/// [`Schema::new`] guarantees is at least 1); every column has the same
/// length, so `columns[0].len()` is the row count.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    schema: Schema,
    columns: Vec<Vec<Symbol>>,
}

impl ColumnTable {
    /// Create an empty columnar table over `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        ColumnTable {
            schema,
            columns: vec![Vec::new(); arity],
        }
    }

    /// Create an empty columnar table with space reserved for `rows` rows
    /// in every column.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let arity = schema.arity();
        ColumnTable {
            schema,
            columns: (0..arity).map(|_| Vec::with_capacity(rows)).collect(),
        }
    }

    /// Transpose a row-major table into columns. One pass over the cells.
    pub fn from_table(table: &Table) -> Self {
        let mut out = ColumnTable::with_capacity(table.schema().clone(), table.len());
        for row in table.rows() {
            for (col, &sym) in out.columns.iter_mut().zip(row.iter()) {
                col.push(sym);
            }
        }
        out
    }

    /// Transpose back into a row-major [`Table`]. One pass over the cells.
    pub fn to_table(&self) -> Table {
        let mut out = Table::with_capacity(self.schema.clone(), self.len());
        let mut row = Vec::with_capacity(self.schema.arity());
        for i in 0..self.len() {
            row.clear();
            row.extend(self.columns.iter().map(|col| col[i]));
            out.push_row(&row).expect("columns match own schema arity");
        }
        out
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row of pre-interned symbols.
    pub fn push_row(&mut self, row: &[Symbol]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (col, &sym) in self.columns.iter_mut().zip(row.iter()) {
            col.push(sym);
        }
        Ok(())
    }

    /// Read one cell.
    #[inline]
    pub fn cell(&self, row: usize, attr: AttrId) -> Symbol {
        self.columns[attr.index()][row]
    }

    /// Overwrite one cell.
    #[inline]
    pub fn set_cell(&mut self, row: usize, attr: AttrId, value: Symbol) {
        self.columns[attr.index()][row] = value;
    }

    /// Borrow one attribute's column.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &[Symbol] {
        &self.columns[attr.index()]
    }

    /// Borrow every column mutably at once (index = attribute index).
    pub fn columns_mut(&mut self) -> Vec<&mut [Symbol]> {
        self.columns.iter_mut().map(Vec::as_mut_slice).collect()
    }

    /// Rebind the columns to `schema`, moving (not copying) this table's
    /// column `attrs[k]` into column `k` — how a batch whose columns
    /// arrived in another order is put into `schema`'s order. `attrs`
    /// must name distinct attributes, one per attribute of `schema`.
    pub fn select(mut self, schema: Schema, attrs: &[AttrId]) -> ColumnTable {
        assert_eq!(attrs.len(), schema.arity(), "one column per attribute");
        let columns = attrs
            .iter()
            .map(|a| std::mem::take(&mut self.columns[a.index()]))
            .collect();
        ColumnTable { schema, columns }
    }

    /// Split the table into disjoint horizontal chunks of at most
    /// `chunk_rows` rows each (the last chunk may be shorter). Each chunk
    /// is a per-attribute list of mutable column slices, so chunks can be
    /// handed to worker threads for parallel grouped repair.
    pub fn columns_mut_chunks(&mut self, chunk_rows: usize) -> Vec<Vec<&mut [Symbol]>> {
        let chunk_rows = chunk_rows.max(1);
        let num_chunks = self.len().div_ceil(chunk_rows);
        let mut chunks: Vec<Vec<&mut [Symbol]>> = (0..num_chunks)
            .map(|_| Vec::with_capacity(self.columns.len()))
            .collect();
        for col in &mut self.columns {
            for (ci, chunk) in col.chunks_mut(chunk_rows).enumerate() {
                chunks[ci].push(chunk);
            }
        }
        chunks
    }
}

impl From<&Table> for ColumnTable {
    fn from(table: &Table) -> Self {
        ColumnTable::from_table(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    fn sample() -> (Schema, SymbolTable, Table) {
        let schema = Schema::new("Cap", ["country", "capital"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut t = Table::new(schema.clone());
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
        t.push_strs(&mut sy, &["Canada", "Ottawa"]).unwrap();
        t.push_strs(&mut sy, &["China", "Shanghai"]).unwrap();
        (schema, sy, t)
    }

    #[test]
    fn round_trip_preserves_cells() {
        let (_, _, t) = sample();
        let cols = ColumnTable::from_table(&t);
        assert_eq!(cols.len(), 3);
        let back = cols.to_table();
        assert_eq!(t.diff_cells(&back).unwrap(), 0);
    }

    #[test]
    fn columns_are_dense_per_attribute() {
        let (schema, sy, t) = sample();
        let cols = ColumnTable::from_table(&t);
        let country = schema.attr("country").unwrap();
        let col = cols.column(country);
        assert_eq!(col.len(), 3);
        assert_eq!(col[0], sy.get("China").unwrap());
        assert_eq!(col[1], sy.get("Canada").unwrap());
        assert_eq!(col[2], sy.get("China").unwrap());
    }

    #[test]
    fn cell_access_matches_row_major() {
        let (schema, _, t) = sample();
        let mut cols = ColumnTable::from_table(&t);
        let cap = schema.attr("capital").unwrap();
        for i in 0..t.len() {
            assert_eq!(cols.cell(i, cap), t.cell(i, cap));
        }
        let fresh = Symbol(999);
        cols.set_cell(1, cap, fresh);
        assert_eq!(cols.cell(1, cap), fresh);
        assert_eq!(cols.to_table().cell(1, cap), fresh);
    }

    #[test]
    fn push_row_checks_arity() {
        let (schema, _, _) = sample();
        let mut cols = ColumnTable::new(schema);
        assert!(cols.push_row(&[Symbol(0)]).is_err());
        cols.push_row(&[Symbol(0), Symbol(1)]).unwrap();
        assert_eq!(cols.len(), 1);
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::new("R", ["a", "b"]).unwrap();
        let t = Table::new(schema);
        let mut cols = ColumnTable::from_table(&t);
        assert_eq!(cols.len(), 0);
        assert!(cols.is_empty());
        assert!(cols.columns_mut_chunks(4).is_empty());
        assert_eq!(cols.to_table().len(), 0);
    }

    #[test]
    fn chunks_cover_all_rows_disjointly() {
        let (_, _, t) = sample();
        let mut cols = ColumnTable::from_table(&t);
        let chunks = cols.columns_mut_chunks(2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0][0].len(), 2);
        assert_eq!(chunks[1][0].len(), 1);
        // Writing through a chunk hits the underlying column.
        let fresh = Symbol(777);
        let mut chunks = cols.columns_mut_chunks(2);
        chunks[1][1][0] = fresh;
        assert_eq!(cols.cell(2, AttrId(1)), fresh);
    }
}
