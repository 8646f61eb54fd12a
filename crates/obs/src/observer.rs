//! Observer events for the repair pipeline.
//!
//! The repair drivers in `fixrules` are generic over a [`RepairObserver`]
//! and report each step as a [`RepairEvent`] through its one method,
//! [`RepairObserver::on`]. The default body is empty and the drivers'
//! public entry points pass [`NoopObserver`], so the instrumented code
//! monomorphizes to exactly the uninstrumented hot path when
//! observability is off — zero branches, zero atomics.
//! [`MetricsObserver`] is the production implementation, folding each
//! event into [`MetricsRegistry`] counters, gauges and histograms under
//! the names listed in [`METRIC_NAMES`].
//!
//! Event payloads are plain `usize`/`u64` so this crate stays a leaf with
//! no knowledge of relational types; callers pass `RuleId::index()` etc.

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Value-carrying description of one applied fix, the payload of
/// [`RepairEvent::CellRepaired`] from the table and stream drivers.
///
/// Plain ids only (row/attr/rule ordinals, interned symbol ids) so this
/// crate stays a leaf; consumers that know the rule set — like the
/// provenance ledger in `fixrules` — expand them back to evidence bindings
/// and names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFix {
    /// Row index in the table (record index for the stream driver).
    pub row: usize,
    /// Application order within the row, from 0.
    pub ordinal: usize,
    /// `RuleId::index()` of the rule that fired.
    pub rule: usize,
    /// `AttrId::index()` of the updated attribute.
    pub attr: usize,
    /// Interned symbol id of the value before the update.
    pub old: u32,
    /// Interned symbol id of the value after the update.
    pub new: u32,
    /// Chase round (`cRepair`) or queue-pop index (`lRepair`), 1-based.
    pub round: u32,
}

/// One observable step of the repair stack, delivered to
/// [`RepairObserver::on`].
///
/// The only borrowed payload is [`RepairEvent::RowObserved`]'s row slice,
/// so the enum is `Copy` and a [`Tee`] hands one event to both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairEvent<'a> {
    /// One outer scan round of `cRepair` over the rule set.
    ChaseRound,
    /// A rule fired and updated attribute `attr`.
    RuleApplied { rule: usize, attr: usize },
    /// A rule was evaluated against a tuple but did not fire (evidence
    /// mismatch, already-assured B cell, or failed re-verification).
    RuleRejected { rule: usize },
    /// Wall-clock nanoseconds one evaluation of `rule` took, fired or not.
    /// Emitted only under [`Interest::RULE_TIMING`], so the `Instant::now`
    /// pair is skipped entirely otherwise.
    RuleLatency { rule: usize, ns: u64 },
    /// A memoized plan re-applied `rule` to attribute `attr`; fires
    /// alongside [`RepairEvent::RuleApplied`].
    PlanReplayed { rule: usize, attr: usize },
    /// `count` tuples each finished after `rounds` chase rounds (or queue
    /// pops) with `updates` cell updates. The oracles report one tuple at
    /// a time; the grouped core reports a signature group's members once.
    TuplesDone {
        rounds: usize,
        updates: usize,
        count: usize,
    },
    /// `lRepair` consulted an inverted list and found `hits` rules.
    IndexProbe { hits: usize },
    /// A hash counter reached its `|X|` target and the rule was enqueued.
    CounterSaturated,
    /// The compiled engine probed one evidence-group dispatch table and
    /// found `hits` matching rules.
    PlanProbe { hits: usize },
    /// The grouped core looked a tuple signature up in the plan cache.
    PlanCacheLookup { hit: bool },
    /// The plan cache evicted an entry to stay within its capacity.
    PlanCacheEvicted,
    /// The grouped core grouped one batch by tuple signature: `rows` rows
    /// fell into `groups` distinct signatures, and `scattered` rows were
    /// repaired by scattering a group plan instead of an engine run or
    /// cache probe.
    BatchGrouped {
        rows: usize,
        groups: usize,
        scattered: usize,
    },
    /// A parallel worker finished its shard.
    WorkerDone {
        worker: usize,
        rows: usize,
        updates: usize,
        busy_ns: u64,
    },
    /// The streaming driver wrote one batch of `count` records; `vocab` is
    /// the interner size after the batch.
    StreamRecords { count: usize, vocab: usize },
    /// A driver is about to repair one row; the slice holds the row's
    /// *pre-repair* interned symbol ids in attribute order. Emitted only
    /// under [`Interest::ROWS`], so the copy is skipped otherwise.
    RowObserved(&'a [u32]),
    /// A table/stream driver applied one fix, with full values: the
    /// provenance event, emitted per update once its row is known.
    CellRepaired(CellFix),
    /// A consistency checker examined `pairs` rule pairs.
    PairsChecked { pairs: usize },
    /// A consistency checker found a conflicting pair; `case` is the Fig 4
    /// characterization case name.
    ConflictFound { case: &'static str },
    /// A consistency checker materialized a witness tuple for a conflict.
    WitnessFound,
    /// The static analyzer (`fixlint`) emitted one finding; `code` is the
    /// stable diagnostic code (`FR001`, ...) and `severity` its severity
    /// name (`error`/`warning`/`note`).
    LintFinding {
        code: &'static str,
        severity: &'static str,
    },
    /// The certifier (`fixcert`) examined `pairs` interaction-graph pairs
    /// for confluence.
    CertPairsChecked { pairs: usize },
    /// The certifier executed one synthesized witness tuple through the
    /// compiled chase engine (two rule orders count as one run).
    CertWitnessRun,
    /// The certifier emitted one finding (`FR009`/`FR010`/`FR011`).
    CertFinding {
        code: &'static str,
        severity: &'static str,
    },
    /// A certification pass finished; `certified` is the verdict.
    CertCompleted { certified: bool },
}

/// The events whose *emission* costs a driver extra work, as a bit set:
/// drivers only time rule evaluations or copy pre-repair rows for
/// observers that ask. Every other event is always emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// No opt-in events.
    pub const NONE: Interest = Interest(0);
    /// [`RepairEvent::RuleLatency`]: time every rule evaluation.
    pub const RULE_TIMING: Interest = Interest(1);
    /// [`RepairEvent::RowObserved`]: copy every row before repairing it.
    pub const ROWS: Interest = Interest(1 << 1);

    /// Whether every bit of `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;

    #[inline]
    fn bitor(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// Receives [`RepairEvent`]s from the repair stack. Both methods default
/// to doing nothing.
///
/// `Sync` is required because the parallel driver shares one observer
/// across workers.
pub trait RepairObserver: Sync {
    /// Handle one event.
    #[inline]
    fn on(&self, event: RepairEvent<'_>) {
        let _ = event;
    }

    /// The opt-in events this observer consumes. Defaults to
    /// [`Interest::NONE`], so under [`NoopObserver`] the drivers' timing
    /// and row-copy branches monomorphize away.
    #[inline]
    fn interest(&self) -> Interest {
        Interest::NONE
    }
}

/// Observers forward through references, so generic drivers can take a
/// `&dyn RepairObserver` (or a `&&impl RepairObserver`) without the caller
/// monomorphizing a new driver per observer stack.
impl<T: RepairObserver + ?Sized> RepairObserver for &T {
    #[inline]
    fn on(&self, event: RepairEvent<'_>) {
        (**self).on(event);
    }

    #[inline]
    fn interest(&self) -> Interest {
        (**self).interest()
    }
}

/// The do-nothing observer; the default for every repair entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RepairObserver for NoopObserver {}

/// Fans every event out to two observers, so e.g. a `MetricsObserver` and a
/// provenance ledger can watch the same repair run: `Tee(&metrics, &prov)`.
#[derive(Debug, Clone, Copy)]
pub struct Tee<'a, A: ?Sized, B: ?Sized>(pub &'a A, pub &'a B);

impl<A: RepairObserver + ?Sized, B: RepairObserver + ?Sized> RepairObserver for Tee<'_, A, B> {
    #[inline]
    fn on(&self, event: RepairEvent<'_>) {
        self.0.on(event);
        self.1.on(event);
    }

    #[inline]
    fn interest(&self) -> Interest {
        self.0.interest() | self.1.interest()
    }
}

/// Every metric name [`MetricsObserver`] can write: counters, the
/// `stream.vocab` gauge and histograms alike, sorted. A `<...>` segment
/// stands for a family of dynamic names (`repair.worker.<i>.rows` covers
/// `repair.worker.0.rows`, ...). A test checks the list against a
/// snapshot in both directions.
pub const METRIC_NAMES: &[&str] = &[
    "cert.certified",
    "cert.findings",
    "cert.findings.<code>",
    "cert.pairs_checked",
    "cert.passes",
    "cert.rejected",
    "cert.severity.<s>",
    "cert.witness_runs",
    "consistency.conflicts",
    "consistency.conflicts.<case>",
    "consistency.pairs_checked",
    "consistency.witness_found",
    "lint.findings",
    "lint.findings.<code>",
    "lint.severity.<s>",
    "repair.batch.groups",
    "repair.batch.rows",
    "repair.batch.scattered",
    "repair.chase.rounds",
    "repair.index.probe_hits",
    "repair.index.probes",
    "repair.plan.probe_hits",
    "repair.plan.probes",
    "repair.plan_cache.evictions",
    "repair.plan_cache.hits",
    "repair.plan_cache.misses",
    "repair.queue.enqueued",
    "repair.rules_applied",
    "repair.tuple_rounds",
    "repair.tuple_updates",
    "repair.tuples",
    "repair.tuples_touched",
    "repair.updates",
    "repair.worker.<i>.busy_ns",
    "repair.worker.<i>.rows",
    "repair.worker.<i>.updates",
    "repair.worker.busy_ns",
    "stream.records",
    "stream.vocab",
];

/// A [`RepairObserver`] that aggregates into a [`MetricsRegistry`].
///
/// Handles are resolved once at construction; each event is one or two
/// relaxed atomic ops. Metrics with dynamic names
/// (`repair.worker.<i>.rows`, `lint.findings.<code>`, ...) take the
/// registry lock, but fire once per worker, conflict or finding.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    batch_rows: Counter,
    batch_groups: Counter,
    batch_scattered: Counter,
    chase_rounds: Counter,
    rules_applied: Counter,
    tuples: Counter,
    tuples_touched: Counter,
    updates: Counter,
    tuple_rounds: Histogram,
    tuple_updates: Histogram,
    probes: Counter,
    probe_hits: Counter,
    plan_probes: Counter,
    plan_probe_hits: Counter,
    plan_hits: Counter,
    plan_misses: Counter,
    plan_evictions: Counter,
    enqueued: Counter,
    stream_records: Counter,
    stream_vocab: Gauge,
    pairs_checked: Counter,
    conflicts: Counter,
    witnesses: Counter,
    lint_findings: Counter,
    cert_pairs: Counter,
    cert_witness_runs: Counter,
    cert_findings: Counter,
    cert_passes: Counter,
}

impl MetricsObserver {
    pub fn new(registry: &MetricsRegistry) -> Self {
        MetricsObserver {
            batch_rows: registry.counter("repair.batch.rows"),
            batch_groups: registry.counter("repair.batch.groups"),
            batch_scattered: registry.counter("repair.batch.scattered"),
            chase_rounds: registry.counter("repair.chase.rounds"),
            rules_applied: registry.counter("repair.rules_applied"),
            tuples: registry.counter("repair.tuples"),
            tuples_touched: registry.counter("repair.tuples_touched"),
            updates: registry.counter("repair.updates"),
            tuple_rounds: registry.histogram("repair.tuple_rounds"),
            tuple_updates: registry.histogram("repair.tuple_updates"),
            probes: registry.counter("repair.index.probes"),
            probe_hits: registry.counter("repair.index.probe_hits"),
            plan_probes: registry.counter("repair.plan.probes"),
            plan_probe_hits: registry.counter("repair.plan.probe_hits"),
            plan_hits: registry.counter("repair.plan_cache.hits"),
            plan_misses: registry.counter("repair.plan_cache.misses"),
            plan_evictions: registry.counter("repair.plan_cache.evictions"),
            enqueued: registry.counter("repair.queue.enqueued"),
            stream_records: registry.counter("stream.records"),
            stream_vocab: registry.gauge("stream.vocab"),
            pairs_checked: registry.counter("consistency.pairs_checked"),
            conflicts: registry.counter("consistency.conflicts"),
            witnesses: registry.counter("consistency.witness_found"),
            lint_findings: registry.counter("lint.findings"),
            cert_pairs: registry.counter("cert.pairs_checked"),
            cert_witness_runs: registry.counter("cert.witness_runs"),
            cert_findings: registry.counter("cert.findings"),
            cert_passes: registry.counter("cert.passes"),
            registry: registry.clone(),
        }
    }

    /// The registry this observer writes to.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    #[inline]
    fn tuples_done(&self, rounds: usize, updates: usize, count: usize) {
        if count == 0 {
            return;
        }
        let n = count as u64;
        self.tuples.add(n);
        if updates > 0 {
            self.tuples_touched.add(n);
            self.updates.add(updates as u64 * n);
        }
        self.tuple_rounds.record_n(rounds as u64, n);
        self.tuple_updates.record_n(updates as u64, n);
    }

    /// Events whose metric names are built at run time: they take the
    /// registry lock, but fire once per worker, conflict or finding.
    #[cold]
    #[inline(never)]
    fn on_dynamic(&self, event: RepairEvent<'_>) {
        let reg = &self.registry;
        match event {
            RepairEvent::WorkerDone {
                worker,
                rows,
                updates,
                busy_ns,
            } => {
                reg.counter(&format!("repair.worker.{worker}.rows"))
                    .add(rows as u64);
                reg.counter(&format!("repair.worker.{worker}.updates"))
                    .add(updates as u64);
                reg.counter(&format!("repair.worker.{worker}.busy_ns"))
                    .add(busy_ns);
                reg.histogram("repair.worker.busy_ns").record(busy_ns);
            }
            RepairEvent::ConflictFound { case } => {
                self.conflicts.inc();
                reg.counter(&format!("consistency.conflicts.{case}")).inc();
            }
            RepairEvent::LintFinding { code, severity } => {
                self.lint_findings.inc();
                reg.counter(&format!("lint.findings.{code}")).inc();
                reg.counter(&format!("lint.severity.{severity}")).inc();
            }
            RepairEvent::CertFinding { code, severity } => {
                self.cert_findings.inc();
                reg.counter(&format!("cert.findings.{code}")).inc();
                reg.counter(&format!("cert.severity.{severity}")).inc();
            }
            RepairEvent::CertCompleted { certified } => {
                self.cert_passes.inc();
                reg.counter(if certified {
                    "cert.certified"
                } else {
                    "cert.rejected"
                })
                .inc();
            }
            _ => {}
        }
    }
}

impl RepairObserver for MetricsObserver {
    // Always inlined: at a monomorphized call site the event variant is a
    // constant, so the match folds to that variant's one or two atomics.
    #[inline(always)]
    fn on(&self, event: RepairEvent<'_>) {
        match event {
            RepairEvent::ChaseRound => self.chase_rounds.inc(),
            RepairEvent::RuleApplied { .. } => self.rules_applied.inc(),
            RepairEvent::TuplesDone {
                rounds,
                updates,
                count,
            } => self.tuples_done(rounds, updates, count),
            RepairEvent::IndexProbe { hits } => {
                self.probes.inc();
                self.probe_hits.add(hits as u64);
            }
            RepairEvent::CounterSaturated => self.enqueued.inc(),
            RepairEvent::PlanProbe { hits } => {
                self.plan_probes.inc();
                self.plan_probe_hits.add(hits as u64);
            }
            RepairEvent::PlanCacheLookup { hit: true } => self.plan_hits.inc(),
            RepairEvent::PlanCacheLookup { hit: false } => self.plan_misses.inc(),
            RepairEvent::PlanCacheEvicted => self.plan_evictions.inc(),
            RepairEvent::BatchGrouped {
                rows,
                groups,
                scattered,
            } => {
                self.batch_rows.add(rows as u64);
                self.batch_groups.add(groups as u64);
                self.batch_scattered.add(scattered as u64);
            }
            RepairEvent::StreamRecords { count, vocab } => {
                self.stream_records.add(count as u64);
                self.stream_vocab.max(vocab as i64);
            }
            RepairEvent::PairsChecked { pairs } => self.pairs_checked.add(pairs as u64),
            RepairEvent::WitnessFound => self.witnesses.inc(),
            RepairEvent::CertPairsChecked { pairs } => self.cert_pairs.add(pairs as u64),
            RepairEvent::CertWitnessRun => self.cert_witness_runs.inc(),
            RepairEvent::WorkerDone { .. }
            | RepairEvent::ConflictFound { .. }
            | RepairEvent::LintFinding { .. }
            | RepairEvent::CertFinding { .. }
            | RepairEvent::CertCompleted { .. } => self.on_dynamic(event),
            // Per-rule and per-cell detail is for attribution, provenance
            // and quality observers.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tuples(rounds: usize, updates: usize, count: usize) -> RepairEvent<'static> {
        RepairEvent::TuplesDone {
            rounds,
            updates,
            count,
        }
    }

    /// One sample of every [`RepairEvent`] variant (both values of the
    /// two-valued ones), checked by the exhaustive `match` below: it has
    /// no `_` arm, so a new variant does not compile until it is listed
    /// there — and then the variant count no longer ties out until it has
    /// a sample here too.
    fn one_of_each(row: &[u32]) -> Vec<RepairEvent<'_>> {
        const VARIANTS: usize = 24;
        let fix = CellFix {
            row: 0,
            ordinal: 0,
            rule: 0,
            attr: 2,
            old: 1,
            new: 2,
            round: 1,
        };
        let samples = vec![
            RepairEvent::ChaseRound,
            RepairEvent::RuleApplied { rule: 0, attr: 2 },
            RepairEvent::RuleRejected { rule: 0 },
            RepairEvent::RuleLatency { rule: 0, ns: 10 },
            RepairEvent::PlanReplayed { rule: 0, attr: 2 },
            tuples(2, 3, 4),
            RepairEvent::IndexProbe { hits: 3 },
            RepairEvent::CounterSaturated,
            RepairEvent::PlanProbe { hits: 2 },
            RepairEvent::PlanCacheLookup { hit: true },
            RepairEvent::PlanCacheLookup { hit: false },
            RepairEvent::PlanCacheEvicted,
            RepairEvent::BatchGrouped {
                rows: 100,
                groups: 7,
                scattered: 93,
            },
            RepairEvent::WorkerDone {
                worker: 1,
                rows: 500,
                updates: 20,
                busy_ns: 1_000,
            },
            RepairEvent::StreamRecords {
                count: 2,
                vocab: 256,
            },
            RepairEvent::RowObserved(row),
            RepairEvent::CellRepaired(fix),
            RepairEvent::PairsChecked { pairs: 6 },
            RepairEvent::ConflictFound { case: "Mutual" },
            RepairEvent::WitnessFound,
            RepairEvent::LintFinding {
                code: "FR001",
                severity: "error",
            },
            RepairEvent::CertPairsChecked { pairs: 3 },
            RepairEvent::CertWitnessRun,
            RepairEvent::CertFinding {
                code: "FR009",
                severity: "error",
            },
            RepairEvent::CertCompleted { certified: true },
            RepairEvent::CertCompleted { certified: false },
        ];
        let variants: BTreeSet<&str> = samples
            .iter()
            .map(|event| match event {
                RepairEvent::ChaseRound => "ChaseRound",
                RepairEvent::RuleApplied { .. } => "RuleApplied",
                RepairEvent::RuleRejected { .. } => "RuleRejected",
                RepairEvent::RuleLatency { .. } => "RuleLatency",
                RepairEvent::PlanReplayed { .. } => "PlanReplayed",
                RepairEvent::TuplesDone { .. } => "TuplesDone",
                RepairEvent::IndexProbe { .. } => "IndexProbe",
                RepairEvent::CounterSaturated => "CounterSaturated",
                RepairEvent::PlanProbe { .. } => "PlanProbe",
                RepairEvent::PlanCacheLookup { .. } => "PlanCacheLookup",
                RepairEvent::PlanCacheEvicted => "PlanCacheEvicted",
                RepairEvent::BatchGrouped { .. } => "BatchGrouped",
                RepairEvent::WorkerDone { .. } => "WorkerDone",
                RepairEvent::StreamRecords { .. } => "StreamRecords",
                RepairEvent::RowObserved(_) => "RowObserved",
                RepairEvent::CellRepaired(_) => "CellRepaired",
                RepairEvent::PairsChecked { .. } => "PairsChecked",
                RepairEvent::ConflictFound { .. } => "ConflictFound",
                RepairEvent::WitnessFound => "WitnessFound",
                RepairEvent::LintFinding { .. } => "LintFinding",
                RepairEvent::CertPairsChecked { .. } => "CertPairsChecked",
                RepairEvent::CertWitnessRun => "CertWitnessRun",
                RepairEvent::CertFinding { .. } => "CertFinding",
                RepairEvent::CertCompleted { .. } => "CertCompleted",
            })
            .collect();
        assert_eq!(
            variants.len(),
            VARIANTS,
            "a RepairEvent variant has no sample"
        );
        samples
    }

    #[test]
    fn noop_observer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopObserver>(), 0);
    }

    #[test]
    fn batched_tuples_done_matches_repeated_tuple_done() {
        // The grouped core's coalesced event must leave every counter and
        // histogram exactly where `count` single-tuple events would.
        let reg_one = MetricsRegistry::new();
        let reg_n = MetricsRegistry::new();
        let one = MetricsObserver::new(&reg_one);
        let batched = MetricsObserver::new(&reg_n);
        (0..7).for_each(|_| one.on(tuples(2, 3, 1)));
        (0..5).for_each(|_| one.on(tuples(1, 0, 1)));
        batched.on(tuples(2, 3, 7));
        batched.on(tuples(1, 0, 5));
        batched.on(tuples(9, 9, 0)); // no-op
        assert_eq!(reg_one.snapshot().to_string(), reg_n.snapshot().to_string());
    }

    #[test]
    fn metrics_observer_aggregates_hooks() {
        let reg = MetricsRegistry::new();
        let obs = MetricsObserver::new(&reg);
        for event in one_of_each(&[1, 2]) {
            obs.on(event);
        }
        // A clean tuple counts but touches nothing; a smaller vocabulary
        // leaves the gauge at its maximum.
        obs.on(tuples(1, 0, 1));
        obs.on(RepairEvent::StreamRecords {
            count: 1,
            vocab: 128,
        });
        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap();
        for (name, want) in [
            ("repair.chase.rounds", 1),
            ("repair.rules_applied", 1),
            ("repair.tuples", 5),
            ("repair.tuples_touched", 4),
            ("repair.updates", 12),
            ("repair.index.probes", 1),
            ("repair.index.probe_hits", 3),
            ("repair.queue.enqueued", 1),
            ("repair.plan.probes", 1),
            ("repair.plan.probe_hits", 2),
            ("repair.plan_cache.hits", 1),
            ("repair.plan_cache.misses", 1),
            ("repair.plan_cache.evictions", 1),
            ("repair.batch.rows", 100),
            ("repair.batch.groups", 7),
            ("repair.batch.scattered", 93),
            ("repair.worker.1.rows", 500),
            ("repair.worker.1.updates", 20),
            ("stream.records", 3),
            ("consistency.pairs_checked", 6),
            ("consistency.conflicts", 1),
            ("consistency.conflicts.Mutual", 1),
            ("lint.findings", 1),
            ("lint.findings.FR001", 1),
            ("lint.severity.error", 1),
            ("cert.passes", 2),
            ("cert.certified", 1),
            ("cert.rejected", 1),
        ] {
            assert_eq!(
                counters.get(name).and_then(|v| v.as_i64()),
                Some(want),
                "{name}"
            );
        }
        let gauges = snap.get("gauges").unwrap();
        assert_eq!(gauges.get("stream.vocab").unwrap().as_i64(), Some(256));
        let updates = snap.get("histograms").unwrap().get("repair.tuple_updates");
        assert_eq!(updates.unwrap().get("count").unwrap().as_i64(), Some(5));
    }

    /// The [`METRIC_NAMES`] entry that covers the concrete metric `name`, or
    /// `None` if `MetricsObserver` never writes it. A `<...>` segment matches
    /// any one non-empty segment.
    fn metric_catalog_entry(name: &str) -> Option<&'static str> {
        let segments: Vec<&str> = name.split('.').collect();
        METRIC_NAMES.iter().copied().find(|entry| {
            entry.split('.').count() == segments.len()
                && (entry.split('.').zip(&segments)).all(|(w, g)| w == *g || w.starts_with('<'))
        })
    }

    #[test]
    fn documented_metric_names_all_appear() {
        let reg = MetricsRegistry::new();
        let obs = MetricsObserver::new(&reg);
        for event in one_of_each(&[1, 2]) {
            obs.on(event);
        }
        let snap = reg.snapshot();
        // Snapshot → catalog: nothing is emitted undocumented.
        let mut covered = BTreeSet::new();
        for kind in ["counters", "gauges", "histograms"] {
            for name in snap.get(kind).unwrap().as_obj().unwrap().keys() {
                covered.insert(metric_catalog_entry(name).expect(name));
            }
        }
        // Catalog → snapshot: every documented name is really emitted.
        for entry in METRIC_NAMES {
            assert!(
                covered.contains(entry),
                "documented metric {entry} never appears"
            );
        }
        assert!(
            METRIC_NAMES.windows(2).all(|w| w[0] < w[1]),
            "keep it sorted"
        );
    }
}
