//! `fixd` traffic: an open-loop phase at a fixed rate (latency, timed from
//! when each request was due) and a closed-loop phase with two clients
//! (capacity), both sending the same 80/10/10 repair/check/explain mix.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::Universe;
use crate::procs::Fixd;
use crate::stats::median;

/// Rows per `/repair` and `/check` batch.
pub const BATCH_ROWS: usize = 500;
/// Requests in flight at once, in both phases.
pub const CLIENTS: usize = 2;
/// Open-loop rate: about half of what a 2-core box sustains through its
/// slow spells, a quarter to a third of its quiet-time capacity.
pub const OPEN_RATE: f64 = 60.0;
/// Closed-loop requests are sized as if sent at this rate, roughly the
/// box's capacity, so the closed phase lasts about as long as it is given.
const CLOSED_RATE: f64 = 180.0;
/// A run whose open-loop generator ran later than this (p99) behind its
/// own schedule measured a backlog, not latency, and is invalid.
pub const MAX_LAG_P99_MS: f64 = 250.0;
/// Ops at the start of a phase that are never `/explain`, so a repaired
/// cell exists before the first explain is due.
const WARM_OPS: usize = 8;
/// How long an `/explain` waits for some `/repair` to succeed before it
/// counts as failed.
const TARGET_WAIT: Duration = Duration::from_secs(2);

/// What one scheduled request does.
enum OpKind {
    Repair,
    Check,
    Explain,
}

/// One scheduled request.
struct Op {
    kind: OpKind,
    /// Universe rows in the batch (empty for explain).
    ids: Vec<u32>,
    /// Pre-rendered CSV body (empty for explain).
    body: Vec<u8>,
    /// Cells the oracle repairs in this batch: (offset, attr, value).
    repaired: Vec<(usize, String, String)>,
}

/// A cell repaired earlier in the run, for `/explain`.
#[derive(Clone)]
struct Target {
    row: usize,
    attr: String,
    value: String,
}

/// Cells repaired so far in the run, shared by every client.
#[derive(Default)]
struct Targets {
    held: Mutex<Vec<Target>>,
    /// Set once a wait for the first repaired cell timed out, so later
    /// explains fail at once instead of each waiting again.
    gave_up: AtomicBool,
}

impl Targets {
    /// A repaired cell to explain, waiting up to [`TARGET_WAIT`] for the
    /// first `/repair` to land.
    fn pick(&self, i: usize) -> Result<Target, String> {
        let deadline = Instant::now() + TARGET_WAIT;
        loop {
            {
                let held = self.held.lock().expect("target list lock");
                if !held.is_empty() {
                    let k = (i.wrapping_mul(0x9E37_79B9)) % held.len();
                    return Ok(held[k].clone());
                }
            }
            if self.gave_up.load(Ordering::SeqCst) || Instant::now() >= deadline {
                self.gave_up.store(true, Ordering::SeqCst);
                return Err("no repaired cell to explain: no /repair has succeeded".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// How one request went.
struct Outcome {
    op: usize,
    /// Due to response read, ms (open loop: from the schedule).
    latency_ms: f64,
    /// Send to response read, ms.
    service_ms: f64,
    /// Send time minus due time, ms.
    lag_ms: f64,
    /// `Ok((status, body))` or a transport error.
    reply: Result<(u16, String), String>,
    /// The explain target, when the op was an explain.
    target: Option<Target>,
}

/// Draws batches from a source of row ids.
pub struct Mix {
    rng: StdRng,
    /// Rows re-sent over and over.
    resend: Vec<u32>,
    /// Rows each sent once, in order; recycled if the run outlasts them.
    fresh: Vec<u32>,
    cursor: usize,
}

impl Mix {
    /// Half of every batch from `resend`, half never seen before.
    pub fn new(seed: u64, resend: Vec<u32>, fresh: Vec<u32>) -> Mix {
        Mix {
            rng: StdRng::seed_from_u64(seed ^ 0x5E4E),
            resend,
            fresh,
            cursor: 0,
        }
    }

    fn batch(&mut self) -> Vec<u32> {
        let mut ids = Vec::with_capacity(BATCH_ROWS);
        for k in 0..BATCH_ROWS {
            if k % 2 == 0 && !self.resend.is_empty() {
                ids.push(self.resend[self.rng.gen_range(0..self.resend.len())]);
            } else {
                ids.push(self.fresh[self.cursor % self.fresh.len()]);
                self.cursor += 1;
            }
        }
        ids
    }

    /// A fixed schedule of `count` requests: 80% repair, 10% check,
    /// 10% explain.
    fn schedule(&mut self, universe: &Universe, count: usize) -> Vec<Op> {
        let names: Vec<&str> = universe.dirty.schema().attr_names().collect();
        (0..count)
            .map(|i| {
                let roll = self.rng.gen_range(0..10);
                let kind = match roll {
                    9 if i >= WARM_OPS => OpKind::Explain,
                    8 => OpKind::Check,
                    _ => OpKind::Repair,
                };
                if matches!(kind, OpKind::Explain) {
                    return Op {
                        kind,
                        ids: Vec::new(),
                        body: Vec::new(),
                        repaired: Vec::new(),
                    };
                }
                let ids = self.batch();
                let mut repaired = Vec::new();
                for (k, &id) in ids.iter().enumerate() {
                    let id = id as usize;
                    if universe.updates[id] == 0 {
                        continue;
                    }
                    for (a, name) in names.iter().enumerate() {
                        let attr = relation::AttrId(a as u16);
                        let new = universe.expected.cell(id, attr);
                        if new != universe.dirty.cell(id, attr) {
                            repaired.push((
                                k,
                                name.to_string(),
                                universe.symbols.resolve(new).to_string(),
                            ));
                        }
                    }
                }
                Op {
                    body: universe.csv_body(&ids),
                    kind,
                    ids,
                    repaired,
                }
            })
            .collect()
    }
}

/// How requests are released.
#[derive(Clone, Copy)]
enum Loop {
    /// Request `i` is due at `i / rate` seconds after the phase starts.
    Open { rate: f64 },
    /// Each client sends its next request when the previous one returns.
    Closed,
}

/// One phase's measurements.
#[derive(Default)]
pub struct Phase {
    /// Phase wall time, s.
    pub wall_s: f64,
    /// Requests sent.
    pub sent: usize,
    /// Rows and body bytes in the `/repair` and `/check` requests sent.
    pub sent_rows: usize,
    pub sent_bytes: usize,
    /// Requests that returned `2xx` with oracle-equal content.
    pub completed: usize,
    /// Failed requests (non-2xx, transport error, or oracle mismatch).
    pub failed: usize,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// Rows in `/repair` requests that completed.
    pub repaired_rows: usize,
    /// Per-kind latency from due, ms.
    pub repair_ms: Vec<f64>,
    pub check_ms: Vec<f64>,
    pub explain_ms: Vec<f64>,
    /// `/repair` latency from send, ms.
    pub repair_service_ms: Vec<f64>,
    /// Send minus due, ms, every request.
    pub lag_ms: Vec<f64>,
}

impl Phase {
    /// Pool `other`'s requests into this phase.
    fn absorb(&mut self, other: &Phase) {
        self.wall_s += other.wall_s;
        self.sent += other.sent;
        self.sent_rows += other.sent_rows;
        self.sent_bytes += other.sent_bytes;
        self.completed += other.completed;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure.clone();
        }
        self.repaired_rows += other.repaired_rows;
        self.repair_ms.extend(&other.repair_ms);
        self.check_ms.extend(&other.check_ms);
        self.explain_ms.extend(&other.explain_ms);
        self.repair_service_ms.extend(&other.repair_service_ms);
        self.lag_ms.extend(&other.lag_ms);
    }
}

/// Run `ops` against `fixd` with [`CLIENTS`] workers, then check every
/// reply against the oracle.
fn run_phase(fixd: &Fixd, universe: &Universe, ops: &[Op], mode: Loop, targets: &Targets) -> Phase {
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(ops.len()));
    let repair_url = fixd.url("/repair");
    let check_url = fixd.url("/check");
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= ops.len() {
                    break;
                }
                let op = &ops[i];
                let due = match mode {
                    Loop::Open { rate } => started + Duration::from_secs_f64(i as f64 / rate),
                    Loop::Closed => Instant::now(),
                };
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let mut target = None;
                let reply = match op.kind {
                    OpKind::Repair => post(&repair_url, &op.body),
                    OpKind::Check => post(&check_url, &op.body),
                    OpKind::Explain => targets.pick(i).and_then(|picked| {
                        let url = fixd.url(&format!("/explain/{}/{}", picked.row, picked.attr));
                        target = Some(picked);
                        obs::http_get(&url).map_err(|e| e.to_string())
                    }),
                };
                let done = Instant::now();
                if let (OpKind::Repair, Ok((200, body))) = (&op.kind, &reply) {
                    if let Some(base) = row_base(body) {
                        let mut held = targets.held.lock().expect("target list lock");
                        held.extend(op.repaired.iter().map(|(k, attr, value)| Target {
                            row: base + k,
                            attr: attr.clone(),
                            value: value.clone(),
                        }));
                    }
                }
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                outcomes.lock().expect("outcome lock").push(Outcome {
                    op: i,
                    latency_ms: ms(done.saturating_duration_since(due)),
                    service_ms: ms(done - sent),
                    lag_ms: ms(sent.saturating_duration_since(due)),
                    reply,
                    target,
                });
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut outcomes = outcomes.into_inner().expect("outcome lock");
    outcomes.sort_by_key(|o| o.op);
    let mut phase = Phase {
        wall_s,
        sent: outcomes.len(),
        sent_rows: ops.iter().map(|op| op.ids.len()).sum(),
        sent_bytes: ops.iter().map(|op| op.body.len()).sum(),
        ..Phase::default()
    };
    for outcome in &outcomes {
        let op = &ops[outcome.op];
        phase.lag_ms.push(outcome.lag_ms);
        match verify(universe, op, outcome) {
            Ok(()) => {
                phase.completed += 1;
                match op.kind {
                    OpKind::Repair => {
                        phase.repaired_rows += op.ids.len();
                        phase.repair_ms.push(outcome.latency_ms);
                        phase.repair_service_ms.push(outcome.service_ms);
                    }
                    OpKind::Check => phase.check_ms.push(outcome.latency_ms),
                    OpKind::Explain => phase.explain_ms.push(outcome.latency_ms),
                }
            }
            Err(why) => {
                phase.failed += 1;
                phase
                    .first_failure
                    .get_or_insert_with(|| format!("request {}: {why}", outcome.op));
            }
        }
    }
    phase
}

fn post(url: &str, body: &[u8]) -> Result<(u16, String), String> {
    obs::http_post(url, "text/csv", body)
        .map(|r| (r.status, r.body))
        .map_err(|e| e.to_string())
}

/// `row_base` from a `/repair` reply, without parsing the whole body.
fn row_base(body: &str) -> Option<usize> {
    let rest = &body[body.find("\"row_base\":")? + "\"row_base\":".len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Check one reply against the oracle.
fn verify(universe: &Universe, op: &Op, outcome: &Outcome) -> Result<(), String> {
    let (status, body) = outcome.reply.as_ref().map_err(|e| e.clone())?;
    if !(200..300).contains(status) {
        return Err(format!("status {status}: {}", body.trim()));
    }
    match op.kind {
        OpKind::Repair => {
            let json = obs::json::parse(body).map_err(|e| format!("reply json: {e}"))?;
            let rows = json
                .get("rows")
                .and_then(obs::Json::as_arr)
                .ok_or("reply has no rows")?;
            if rows.len() != op.ids.len() {
                return Err(format!("{} rows back for {}", rows.len(), op.ids.len()));
            }
            for (k, (row, &id)) in rows.iter().zip(&op.ids).enumerate() {
                let cells = row.as_arr().ok_or("row is not an array")?;
                let want = universe.expected.row(id as usize);
                if cells.len() != want.len() {
                    return Err(format!("row {k}: {} cells", cells.len()));
                }
                for (a, (cell, &sym)) in cells.iter().zip(want).enumerate() {
                    let expected = universe.symbols.resolve(sym);
                    if cell.as_str() != Some(expected) {
                        return Err(format!("row {k} attr {a}: got {cell}, oracle {expected:?}"));
                    }
                }
            }
            Ok(())
        }
        OpKind::Check => {
            let json = obs::json::parse(body).map_err(|e| format!("reply json: {e}"))?;
            let per_row = json
                .get("per_row")
                .and_then(obs::Json::as_arr)
                .ok_or("reply has no per_row")?;
            if per_row.len() != op.ids.len() {
                return Err(format!(
                    "{} counts for {} rows",
                    per_row.len(),
                    op.ids.len()
                ));
            }
            for (k, (count, &id)) in per_row.iter().zip(&op.ids).enumerate() {
                let want = i64::from(universe.updates[id as usize]);
                if count.as_i64() != Some(want) {
                    return Err(format!("row {k}: {count} update(s), oracle {want}"));
                }
            }
            Ok(())
        }
        OpKind::Explain => {
            let target = outcome.target.as_ref().ok_or("explain without a target")?;
            let last = body
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .ok_or("empty chain")?;
            let record = obs::json::parse(last).map_err(|e| format!("chain json: {e}"))?;
            let attr = record.get("attr").and_then(obs::Json::as_str);
            let new = record.get("new").and_then(obs::Json::as_str);
            if attr != Some(target.attr.as_str()) || new != Some(target.value.as_str()) {
                return Err(format!(
                    "chain for row {} {} ends at {last}, oracle {:?}",
                    target.row, target.attr, target.value
                ));
            }
            Ok(())
        }
    }
}

/// Open/closed rounds per measurement. A slow spell of the machine
/// lands in a few rounds; medians over rounds keep it out of the run's
/// figures.
pub const ROUNDS: usize = 8;

/// Server histograms whose open-loop means the traced run reports.
pub const SERVER_HISTOGRAMS: [&str; 4] = [
    "http.latency_ns{endpoint=\"repair\"}",
    "http.latency_ns{endpoint=\"check\"}",
    "http.latency_ns{endpoint=\"explain\"}",
    "serve.repair_stage_ns{cache=\"on\"}",
];

/// One serve measurement: [`ROUNDS`] rounds of an open-loop segment
/// followed by a closed-loop segment.
pub struct Traffic {
    /// Rows of every open-loop `/repair` batch, in schedule order.
    pub open_repair_ids: Vec<u32>,
    /// `(open, closed)` per round.
    pub rounds: Vec<(Phase, Phase)>,
    /// Every open-loop request, pooled.
    pub open: Phase,
    /// Every closed-loop request, pooled.
    pub closed: Phase,
    /// `(sum, count)` of each [`SERVER_HISTOGRAMS`] entry accrued during
    /// the open-loop segments, from `/metrics.json` around each segment.
    pub server_open: Vec<(f64, f64)>,
    /// `/metrics.json` at the end.
    pub metrics_end: obs::Json,
}

impl Traffic {
    /// Median over rounds of `f(open, closed)`.
    pub fn per_round(&self, f: impl Fn(&Phase, &Phase) -> f64) -> f64 {
        let values: Vec<f64> = self.rounds.iter().map(|(o, c)| f(o, c)).collect();
        median(&values)
    }

    /// Open-loop mean of server histogram `i` of [`SERVER_HISTOGRAMS`], ms.
    pub fn server_mean_ms(&self, i: usize) -> f64 {
        let (sum, count) = self.server_open[i];
        if count > 0.0 {
            sum / count / 1e6
        } else {
            f64::NAN
        }
    }
}

/// Build a fixed schedule for `seconds` (60% open loop at [`OPEN_RATE`],
/// the rest a closed-loop count sized at [`CLOSED_RATE`]), split it into
/// [`ROUNDS`] rounds, and run it, calling `between_rounds` with the number
/// of rounds done after every round but the last while `fixd` is idle.
pub fn run_traffic(
    fixd: &Fixd,
    universe: &Universe,
    mix: &mut Mix,
    seconds: f64,
    between_rounds: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<Traffic, String> {
    let open_count =
        ((seconds * 0.6 * OPEN_RATE / ROUNDS as f64).round() as usize).max(WARM_OPS + 2);
    let closed_count =
        ((seconds * 0.4 * CLOSED_RATE / ROUNDS as f64).round() as usize).max(WARM_OPS + 2);
    let schedules: Vec<(Vec<Op>, Vec<Op>)> = (0..ROUNDS)
        .map(|_| {
            (
                mix.schedule(universe, open_count),
                mix.schedule(universe, closed_count),
            )
        })
        .collect();
    let targets = Targets::default();
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut server_open = vec![(0.0, 0.0); SERVER_HISTOGRAMS.len()];
    for (open_ops, closed_ops) in &schedules {
        let before = scrape(fixd)?;
        let open = run_phase(
            fixd,
            universe,
            open_ops,
            Loop::Open { rate: OPEN_RATE },
            &targets,
        );
        let after = scrape(fixd)?;
        for (acc, name) in server_open.iter_mut().zip(SERVER_HISTOGRAMS) {
            let (s0, c0) = histogram(&before, name);
            let (s1, c1) = histogram(&after, name);
            acc.0 += s1 - s0;
            acc.1 += c1 - c0;
        }
        let closed = run_phase(fixd, universe, closed_ops, Loop::Closed, &targets);
        rounds.push((open, closed));
        if rounds.len() < ROUNDS {
            between_rounds(rounds.len())?;
        }
    }
    let metrics_end = scrape(fixd)?;
    let open_repair_ids = schedules
        .iter()
        .flat_map(|(open_ops, _)| open_ops)
        .filter(|op| matches!(op.kind, OpKind::Repair))
        .flat_map(|op| op.ids.iter().copied())
        .collect();
    let pool = |pick: fn(&(Phase, Phase)) -> &Phase| {
        let mut all = Phase::default();
        for round in &rounds {
            all.absorb(pick(round));
        }
        all
    };
    Ok(Traffic {
        open_repair_ids,
        open: pool(|r| &r.0),
        closed: pool(|r| &r.1),
        rounds,
        server_open,
        metrics_end,
    })
}

/// Never-seen rows a [`run_traffic`] of `seconds` sends.
pub fn fresh_rows_needed(seconds: f64) -> usize {
    let requests = seconds * (0.6 * OPEN_RATE + 0.4 * CLOSED_RATE);
    (requests * 0.9 * (BATCH_ROWS / 2) as f64) as usize
}

/// `GET /metrics.json`.
pub fn scrape(fixd: &Fixd) -> Result<obs::Json, String> {
    let (status, body) =
        obs::http_get(&fixd.url("/metrics.json")).map_err(|e| format!("scrape: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics.json answered {status}"));
    }
    obs::json::parse(&body).map_err(|e| format!("/metrics.json: {e}"))
}

/// A counter from a registry snapshot (0 when absent).
pub fn counter(snapshot: &obs::Json, name: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(obs::Json::as_f64)
        .unwrap_or(0.0)
}

/// `(sum, count)` of a histogram from a registry snapshot.
pub fn histogram(snapshot: &obs::Json, name: &str) -> (f64, f64) {
    let h = snapshot.get("histograms").and_then(|h| h.get(name));
    let field = |k: &str| {
        h.and_then(|h| h.get(k))
            .and_then(obs::Json::as_f64)
            .unwrap_or(0.0)
    };
    (field("sum"), field("count"))
}

/// `fixd` command line for a universe's rules.
pub fn fixd_args(rules_path: &std::path::Path, universe: &Universe) -> Vec<String> {
    vec![
        "--rules".into(),
        rules_path.display().to_string(),
        "--schema".into(),
        universe.schema_names(),
        "--threads".into(),
        CLIENTS.to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
    ]
}
