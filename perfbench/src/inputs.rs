//! Seeded inputs: the paper's §7.1 pipeline (HOSP, 10% noise, 1000 rules)
//! plus the reference lRepair oracle over every generated row.
//!
//! One generated table (the *universe*) backs a workload. Its first
//! [`BASE_ROWS`] rows are the rule base: the paper's 115K-record HOSP
//! extract, from whose dirty copy the 1000 rules are generated. Rows past
//! the base are providers the rules were never built from. Workloads pick
//! rows of the universe by index; the programs under test only ever see
//! CSV and `.frl` text rendered from it.

use std::io::Write;

use datagen::noise::{inject, NoiseConfig};
use datagen::Dataset;
use eval::rules::{build_ruleset, RuleGenConfig};
use fixrules::io::{format_rules, parse_rules};
use fixrules::repair::{lrepair_table, LRepairIndex};
use fixrules::RuleSet;
use rand::rngs::StdRng;
use rand::Rng;
use relation::{SymbolTable, Table};

/// Rows of the rule base (the paper's HOSP size).
pub const BASE_ROWS: usize = 115_000;
/// Rules generated from the base (the paper's HOSP rule count).
pub const RULES: usize = 1_000;
/// Share of rows given one corrupted cell (the paper's default).
pub const NOISE: f64 = 0.10;

/// A generated table, its rules, and the oracle's repair of every row.
pub struct Universe {
    /// Interner shared by every table below.
    pub symbols: SymbolTable,
    /// The dirty rows, as the programs receive them.
    pub dirty: Table,
    /// The rules, parsed back from [`Universe::rules_text`].
    pub rules: RuleSet,
    /// The `.frl` text handed to `fixctl` and `fixd`.
    pub rules_text: String,
    /// `lrepair_table` applied to `dirty`.
    pub expected: Table,
    /// Oracle updates per row of `dirty`.
    pub updates: Vec<u32>,
    /// CSV rendering of `dirty`, one line per row.
    pub dirty_lines: Lines,
    /// CSV rendering of `expected`, one line per row.
    pub expected_lines: Lines,
}

impl Universe {
    /// Generate `rows` (at least [`BASE_ROWS`]) HOSP rows from `seed`,
    /// dirty them, build the rules from the base prefix, and run the
    /// oracle over all of them.
    pub fn generate(seed: u64, rows: usize) -> Result<Universe, String> {
        let rows = rows.max(BASE_ROWS);
        let mut dataset = datagen::hosp::generate(rows, seed);
        let attrs = dataset.constrained_attrs();
        let mut dirty = dataset.clean.clone();
        inject(
            &mut dirty,
            &mut dataset.symbols,
            &attrs,
            NoiseConfig {
                rate: NOISE,
                typo_fraction: 0.5,
                seed: seed ^ 0xD147,
            },
        );
        let mut base = Dataset {
            name: dataset.name,
            schema: dataset.schema.clone(),
            symbols: std::mem::take(&mut dataset.symbols),
            clean: prefix(&dataset.clean, BASE_ROWS)?,
            fds: dataset.fds.clone(),
        };
        let (generated, _) = build_ruleset(
            &mut base,
            &prefix(&dirty, BASE_ROWS)?,
            RuleGenConfig {
                target: RULES,
                seed,
                enrich_factor: 1.0,
            },
        );
        let mut symbols = base.symbols;
        let rules_text = format_rules(&generated, &symbols);
        // The oracle repairs with the rules as the programs will parse them.
        let rules = parse_rules(&rules_text, dirty.schema(), &mut symbols)
            .map_err(|e| format!("re-parsing generated rules: {e}"))?;
        let mut expected = dirty.clone();
        let outcome = lrepair_table(&rules, &LRepairIndex::build(&rules), &mut expected);
        let mut updates = vec![0u32; dirty.len()];
        for update in &outcome.updates {
            updates[update.row] += 1;
        }
        let dirty_lines = Lines::render(&dirty, &symbols)?;
        let expected_lines = Lines::render(&expected, &symbols)?;
        Ok(Universe {
            symbols,
            dirty,
            rules,
            rules_text,
            expected,
            updates,
            dirty_lines,
            expected_lines,
        })
    }

    /// Write the rule file the programs load.
    pub fn write_rules(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, &self.rules_text).map_err(|e| format!("writing {path:?}: {e}"))
    }

    /// Write a CSV of the dirty rows `ids`, in order; returns its size.
    pub fn write_csv(&self, path: &std::path::Path, ids: &[u32]) -> Result<u64, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path:?}: {e}"))?;
        let mut out = std::io::BufWriter::with_capacity(1 << 20, file);
        let mut bytes = self.dirty_lines.header().len() as u64;
        out.write_all(self.dirty_lines.header())
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        for &id in ids {
            let line = self.dirty_lines.row(id as usize);
            bytes += line.len() as u64;
            out.write_all(line)
                .map_err(|e| format!("writing {path:?}: {e}"))?;
        }
        out.flush().map_err(|e| format!("writing {path:?}: {e}"))?;
        Ok(bytes)
    }

    /// CSV body (header plus rows `ids`) for one HTTP request.
    pub fn csv_body(&self, ids: &[u32]) -> Vec<u8> {
        let mut body = self.dirty_lines.header().to_vec();
        for &id in ids {
            body.extend_from_slice(self.dirty_lines.row(id as usize));
        }
        body
    }

    /// Oracle update count summed over rows `ids`.
    pub fn updates_of(&self, ids: &[u32]) -> u64 {
        ids.iter()
            .map(|&id| u64::from(self.updates[id as usize]))
            .sum()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.dirty.schema().arity()
    }

    /// Attribute names, comma-separated.
    pub fn schema_names(&self) -> String {
        self.dirty
            .schema()
            .attr_names()
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn prefix(table: &Table, rows: usize) -> Result<Table, String> {
    let mut out = Table::with_capacity(table.schema().clone(), rows);
    for i in 0..rows.min(table.len()) {
        out.push_row(table.row(i)).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// A CSV rendering split into lines (each with its trailing newline),
/// made by the benchmark's own writer so that a fault in the library's
/// CSV writer cannot hide in the expected output.
pub struct Lines {
    buf: Vec<u8>,
    /// Start offset of every line, plus the end of the buffer.
    starts: Vec<usize>,
}

impl Lines {
    /// Render `table` as RFC 4180 CSV with a header row.
    pub fn render(table: &Table, symbols: &SymbolTable) -> Result<Lines, String> {
        let mut buf = Vec::with_capacity(table.len() * table.schema().arity() * 12);
        let mut starts = vec![0];
        let names: Vec<&str> = table.schema().attr_names().collect();
        push_record(&mut buf, names.iter().copied())?;
        starts.push(buf.len());
        for row in table.rows() {
            push_record(&mut buf, row.iter().map(|&sym| symbols.resolve(sym)))?;
            starts.push(buf.len());
        }
        Ok(Lines { buf, starts })
    }

    /// The header line.
    pub fn header(&self) -> &[u8] {
        &self.buf[..self.starts[1]]
    }

    /// Data row `i`'s line.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.buf[self.starts[i + 1]..self.starts[i + 2]]
    }
}

/// Append one CSV record, quoting fields that hold a comma or a quote.
fn push_record<'a>(buf: &mut Vec<u8>, fields: impl Iterator<Item = &'a str>) -> Result<(), String> {
    for (i, field) in fields.enumerate() {
        if field.contains(['\n', '\r']) {
            return Err(format!("value {field:?} spans lines"));
        }
        if i > 0 {
            buf.push(b',');
        }
        if field.contains([',', '"']) {
            buf.push(b'"');
            buf.extend_from_slice(field.replace('"', "\"\"").as_bytes());
            buf.push(b'"');
        } else {
            buf.extend_from_slice(field.as_bytes());
        }
    }
    buf.push(b'\n');
    Ok(())
}

/// `k` distinct indices from `0..n`, in draw order.
pub fn distinct_sample(rng: &mut StdRng, n: usize, k: usize) -> Vec<u32> {
    let mut pool: Vec<u32> = (0..n as u32).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}
