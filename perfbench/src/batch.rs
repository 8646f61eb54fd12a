//! `fixctl repair` over a whole CSV file, checked cell for cell against
//! the lRepair oracle.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::Command;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{distinct_sample, Universe, BASE_ROWS};
use crate::procs::{run_measured, Exit};

/// Distinct rows `batch_dup` draws from.
pub const DUP_POOL: usize = 2_000;

/// The rows one batch workload feeds `fixctl`.
pub struct BatchInput {
    pub universe: Universe,
    /// Universe row of every input row, in file order.
    pub ids: Vec<u32>,
    /// The distinct rows behind `ids` when they repeat (`batch_dup`).
    pub pool: Vec<u32>,
}

/// `rows` rows drawn with replacement from [`DUP_POOL`] distinct rows of
/// the rule base.
pub fn dup_input(seed: u64, rows: usize) -> Result<BatchInput, String> {
    let universe = Universe::generate(seed, BASE_ROWS)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0B);
    let pool = distinct_sample(&mut rng, BASE_ROWS, DUP_POOL);
    let ids = (0..rows)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    Ok(BatchInput {
        universe,
        ids,
        pool,
    })
}

/// `rows` distinct rows: the rule base followed by providers the rules
/// were never built from.
pub fn novel_input(seed: u64, rows: usize) -> Result<BatchInput, String> {
    let universe = Universe::generate(seed, rows)?;
    Ok(BatchInput {
        universe,
        ids: (0..rows as u32).collect(),
        pool: Vec::new(),
    })
}

/// The `fixctl repair` command line every batch run uses.
pub fn fixctl_repair(bin: &str, rules: &Path, data: &Path, out: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("repair")
        .arg("--rules")
        .arg(rules)
        .arg("--data")
        .arg(data)
        .arg("--out")
        .arg(out)
        .args(["--engine", "columnar", "--threads", "1"]);
    cmd
}

/// Run `cmd` and check its output file against the oracle for `ids`.
/// `out` is removed first (untimed), so a stale file never passes the
/// check and no run pays for truncating the previous run's output.
pub fn run_checked(
    cmd: &mut Command,
    universe: &Universe,
    ids: &[u32],
    out: &Path,
) -> Result<Exit, String> {
    match std::fs::remove_file(out) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("removing {out:?}: {e}"));
        }
        _ => {}
    }
    let exit = run_measured(cmd)?;
    if !exit.success {
        return Err(format!("fixctl failed; stdout: {}", exit.stdout.trim()));
    }
    let reported = reported_updates(&exit.stdout)
        .ok_or_else(|| format!("no update count in fixctl output: {}", exit.stdout.trim()))?;
    let want = universe.updates_of(ids);
    if reported != want {
        return Err(format!(
            "fixctl reports {reported} update(s), oracle {want}"
        ));
    }
    check_output(universe, ids, out)?;
    Ok(exit)
}

/// `N` from fixctl's `N update(s) across ...` line.
fn reported_updates(stdout: &str) -> Option<u64> {
    stdout
        .lines()
        .find_map(|l| l.split_once(" update(s) across "))
        .and_then(|(n, _)| n.trim().parse().ok())
}

/// Compare `out` with the oracle's rows for `ids`. Lines are compared as
/// bytes first; a line that differs is re-read as CSV cells, so only a
/// different cell value (not a quoting choice) is a mismatch.
pub fn check_output(universe: &Universe, ids: &[u32], out: &Path) -> Result<(), String> {
    let file = std::fs::File::open(out).map_err(|e| format!("opening {out:?}: {e}"))?;
    let mut reader = BufReader::with_capacity(1 << 20, file);
    let mut line = Vec::with_capacity(512);
    let mut next = |line: &mut Vec<u8>| -> Result<bool, String> {
        line.clear();
        let n = reader
            .read_until(b'\n', line)
            .map_err(|e| format!("reading {out:?}: {e}"))?;
        Ok(n > 0)
    };
    let lines = &universe.expected_lines;
    if !next(&mut line)? || !same_cells(&line, lines.header()) {
        return Err(format!("{out:?}: header differs from the input's"));
    }
    let mut bad_rows = 0usize;
    let mut first_bad = None;
    for (k, &id) in ids.iter().enumerate() {
        if !next(&mut line)? {
            return Err(format!("{out:?}: {} rows, expected {}", k, ids.len()));
        }
        let want = lines.row(id as usize);
        if line != want && !same_cells(&line, want) {
            bad_rows += 1;
            first_bad.get_or_insert_with(|| {
                format!(
                    "row {k}: got {:?}, oracle {:?}",
                    String::from_utf8_lossy(&line).trim_end(),
                    String::from_utf8_lossy(want).trim_end()
                )
            });
        }
    }
    if next(&mut line)? {
        return Err(format!("{out:?}: more rows than the {} sent", ids.len()));
    }
    match first_bad {
        None => Ok(()),
        Some(first) => Err(format!(
            "{bad_rows} row(s) differ from the oracle, first {first}"
        )),
    }
}

fn same_cells(a: &[u8], b: &[u8]) -> bool {
    matches!((cells(a), cells(b)), (Some(x), Some(y)) if x == y)
}

fn cells(line: &[u8]) -> Option<Vec<String>> {
    let mut reader = csv::ReaderBuilder::new()
        .has_headers(false)
        .from_reader(line);
    let record = reader.records().next()?.ok()?;
    Some(record.iter().map(str::to_string).collect())
}
