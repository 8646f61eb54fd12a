//! `fixctl` — repair CSV data with fixing rules from the command line.
//!
//! ```text
//! fixctl lint    rules.frl [--deny warnings] [--format json]
//!                                                         # static analysis (fixlint)
//! fixctl check   --rules rules.frl --data data.csv        # consistency report
//! fixctl resolve --rules rules.frl --data data.csv --out fixed_rules.frl
//!                [--strategy shrink|drop]                 # §5.3 workflow
//! fixctl repair  --rules rules.frl --data dirty.csv --out repaired.csv
//!                [--engine linear|chase|stream]          # aliases: lrepair|compiled|columnar,
//!                                                         #   crepair|compiled-chase|columnar-chase
//!                [--plan-cache on|off|CAPACITY] [--threads N]
//!                [--updates-log updates.csv]
//!                [--trace trace.jsonl]                    # provenance journal
//! fixctl stats   --rules rules.frl --data data.csv        # rule-set statistics
//! fixctl explain trace.jsonl --row R --attr A             # why did this cell change?
//! fixctl trace export trace.jsonl --chrome out.json       # Perfetto-viewable timeline
//! fixctl coverage --rules rules.frl --data data.csv [--lint] [--engine linear|chase]
//!                                                         # per-rule attribution profile,
//!                                                         # joined against the linter
//! fixctl serve-metrics [--addr 127.0.0.1:0] [--scrapes N] # standalone scrape endpoint
//! fixctl scrape http://HOST:PORT/metrics [--require NAME] # fetch + validate exposition
//!                                                         # NAME may be a labeled series:
//!                                                         #   http.requests{endpoint="repair"}
//! fixctl quality http://HOST:PORT [--window W]            # repair-quality window table
//!                [--require-green]                        # (also reads a snapshot file;
//!                                                         #  exit 1 on active alerts)
//! fixctl serve  --rules rules.frl [--addr 127.0.0.1:0]    # long-running repair daemon
//!               [--threads N] [--engine chase|linear] [--schema a,b,c]
//!               [--warm data.csv] [--journal trace.jsonl] [--cache-shards N]
//!               [--slo-window N] [--slo-min-samples N]
//!               [--slo-max-error-rate F] [--slo-max-p99-ms N]
//!               [--trace-sample N] [--quality-window N]
//!               [--quality-alert drift>0.5,repair_rate:city>0.25] [--quality-gate]
//! fixctl client repair rows.csv --addr HOST:PORT [--format csv]
//! fixctl client check  rows.csv --addr HOST:PORT          # dry run, nothing recorded
//! fixctl client get    /readyz  --addr HOST:PORT          # any GET endpoint
//! fixctl client shutdown        --addr HOST:PORT          # graceful drain
//! ```
//!
//! `repair` additionally takes the profiling/exposition flags:
//!
//! * `--profile` — print a ranked per-rule attribution table after the run;
//! * `--profile-json FILE` — write the profile as deterministic JSON (counts
//!   only, no wall-clock: two identical runs are byte-identical);
//! * `--expose ADDR` — serve `GET /metrics` (Prometheus text format),
//!   `/metrics.json`, and `/healthz` from the live registry during the run;
//! * `--expose-hold N` — keep the process (and endpoint) alive after the
//!   repair until `N` scrapes have been served, then shut down.
//!
//! Every command also takes the observability flags:
//!
//! * `--metrics <path>` — write a deterministic JSON snapshot of per-stage
//!   timings (`stage.*_ns` histograms) and pipeline counters
//!   (`repair.rules_applied`, `repair.tuples_touched`,
//!   `consistency.conflicts`, ...; see [`obs::METRIC_NAMES`]).
//! * `--log <off|info|debug>` — structured `key=value` progress lines on
//!   stderr.
//! * `--trace <path>` — append-only JSONL journal of stage spans plus, for
//!   `repair`, the full provenance ledger (one `repair.cell` event per
//!   fix, with rule, evidence bindings, and assured-set delta).
//!   `--trace-clock logical|wall` picks timestamps: `logical` (default)
//!   is byte-deterministic across runs, `wall` records microseconds.
//!
//! The schema is taken from the CSV header; rule files use the
//! [`fixrules::io`] line format:
//!
//! ```text
//! IF country = "China" AND capital IN {"Shanghai", "Hongkong"} THEN capital := "Beijing"
//! ```

use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;

use fixrules::consistency::resolve::{ensure_consistent, Strategy};
use fixrules::consistency::{
    conflict_witness, enumerate::WILDCARD, is_consistent_characterize_observed,
    is_consistent_parallel_observed, ConsistencyReport,
};
use fixrules::io::{format_rule, format_rules, parse_rules, parse_rules_spanned, Span};
use fixrules::provenance::{ProvenanceLedger, ProvenanceObserver, ProvenanceRecord};
use fixrules::repair::{
    columnar_table_observed, par_columnar_table_observed, stream_repair_csv, BatchStats,
    CompiledEngine, LRepairIndex, PlanCache, RepairOutcome, RuleProgram,
};
use fixrules::RuleSet;
use obs::trace::{chrome_trace, parse_jsonl, TracePhase, TraceSpan};
use obs::{
    http_get, parse_prometheus, render_snapshot, AlertRule, AttributionObserver, Json,
    MetricsObserver, MetricsRegistry, MetricsServer, QualityConfig, QualityMonitor, RepairEvent,
    RepairObserver, RuleLabel, Tee, TraceClock, TraceJournal,
};
use relation::csv_io::{read_csv_file_as, write_csv_file, CsvTable, CsvWriter};
use relation::{ColumnTable, Schema, Symbol, SymbolTable, Table};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fixctl: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Observability context shared by every command: a metrics registry, the
/// observer the repair drivers report into, an optional trace journal, and
/// where (if anywhere) to dump each at exit.
struct ObsCtx {
    registry: MetricsRegistry,
    observer: MetricsObserver,
    metrics_path: Option<String>,
    journal: Option<TraceJournal>,
    trace_path: Option<String>,
}

/// Compound stage guard from [`ObsCtx::span`]: a metrics span timer plus,
/// when `--trace` is active, a matching journal span. Both close on drop.
struct StageSpan<'a> {
    _timer: obs::SpanTimer,
    _trace: Option<TraceSpan<'a>>,
}

impl ObsCtx {
    fn from_flags(flags: &Flags) -> Result<ObsCtx, String> {
        if let Some(level) = flags.optional("log") {
            obs::log::set_level(level.parse()?);
        }
        let registry = MetricsRegistry::new();
        let observer = MetricsObserver::new(&registry);
        let (journal, trace_path) = match flags.optional("trace") {
            Some(path) => {
                let clock = match flags.optional("trace-clock") {
                    Some(c) => c.parse::<TraceClock>()?,
                    None => TraceClock::Logical,
                };
                (Some(TraceJournal::new(clock)), Some(path.to_string()))
            }
            None => (None, None),
        };
        Ok(ObsCtx {
            observer,
            metrics_path: flags.optional("metrics").map(str::to_string),
            journal,
            trace_path,
            registry,
        })
    }

    /// Time a named stage; the span records into `stage.<name>_ns` and, when
    /// tracing, opens a `stage.<name>` journal span.
    fn span(&self, stage: &str) -> StageSpan<'_> {
        let name = format!("stage.{stage}");
        StageSpan {
            _timer: self.registry.span(&name),
            _trace: self.journal.as_ref().map(|j| j.span(&name, 0)),
        }
    }

    /// Write the metrics snapshot and trace journal if `--metrics`/`--trace`
    /// were given. Called on both success and failure so partial runs still
    /// leave a trace.
    fn finish(&self) -> Result<(), String> {
        if let Some(path) = &self.metrics_path {
            let snapshot = self.registry.snapshot();
            std::fs::write(path, snapshot.to_string_pretty() + "\n")
                .map_err(|e| format!("writing {path}: {e}"))?;
            obs::info!("metrics.written", path = path);
        }
        if let (Some(journal), Some(path)) = (&self.journal, &self.trace_path) {
            std::fs::write(path, journal.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
            obs::info!("trace.written", path = path, records = journal.len());
        }
        Ok(())
    }
}

struct Flags {
    values: HashMap<String, String>,
}

/// Flags that are plain switches: present or absent, consuming no value.
const SWITCH_FLAGS: &[&str] = &["profile", "lint", "quality-gate", "require-green"];

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, found `{}`", args[i]))?;
            if SWITCH_FLAGS.contains(&flag) {
                values.insert(flag.to_string(), String::new());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{flag} needs a value"))?;
            values.insert(flag.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags { values })
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Whether a switch flag (see [`SWITCH_FLAGS`]) was given.
    fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    // `lint`, `certify` and `explain` take a file as a positional argument
    // (like rustc), `trace` has an `export` subcommand; every other
    // command is pure `--flag value` pairs.
    let (positional, flag_args) = match command.as_str() {
        "lint" | "certify" | "explain" | "scrape" | "quality" => match args.get(1) {
            Some(arg) if !arg.starts_with("--") => (Some(arg.as_str()), &args[2..]),
            _ => (None, &args[1..]),
        },
        "client" => {
            match args.get(1).map(String::as_str) {
                Some("repair" | "check" | "get" | "rules" | "shutdown") => {}
                _ => {
                    return Err("unknown client subcommand (expected `fixctl client \
                         <repair|check|get|rules|shutdown> ... --addr HOST:PORT`)"
                        .to_string())
                }
            }
            match args.get(2) {
                Some(arg) if !arg.starts_with("--") => (Some(arg.as_str()), &args[3..]),
                _ => (None, &args[2..]),
            }
        }
        "trace" => {
            if args.get(1).map(String::as_str) != Some("export") {
                return Err(
                    "unknown trace subcommand (expected `fixctl trace export <trace.jsonl> \
                     --chrome out.json`)"
                        .to_string(),
                );
            }
            match args.get(2) {
                Some(arg) if !arg.starts_with("--") => (Some(arg.as_str()), &args[3..]),
                _ => (None, &args[2..]),
            }
        }
        _ => (None, &args[1..]),
    };
    let flags = Flags::parse(flag_args)?;
    let obs_ctx = ObsCtx::from_flags(&flags)?;
    let result = match command.as_str() {
        "check" => cmd_check(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "convert" => cmd_convert(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "coverage" => cmd_coverage(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "detect" => cmd_detect(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "discover" => cmd_discover(&flags).map(|()| ExitCode::SUCCESS),
        "explain" => cmd_explain(positional, &flags),
        "lint" => cmd_lint(positional, &flags, &obs_ctx),
        "certify" => cmd_certify(positional, &flags, &obs_ctx),
        "resolve" => cmd_resolve(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "repair" => cmd_repair(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "scrape" => cmd_scrape(positional, &flags),
        "quality" => cmd_quality(positional, &flags),
        "serve" => cmd_serve(&flags).map(|()| ExitCode::SUCCESS),
        "client" => cmd_client(args[1].as_str(), positional, &flags),
        "serve-metrics" => cmd_serve_metrics(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "stats" => cmd_stats(&flags, &obs_ctx).map(|()| ExitCode::SUCCESS),
        "trace" => cmd_trace_export(positional, &flags).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    obs_ctx.finish()?;
    result
}

fn usage() -> String {
    "usage: fixctl <check|detect|discover|resolve|repair|stats|convert> --rules FILE --data FILE.csv \
     [--out FILE] [--engine linear|chase|stream] \
     [--plan-cache on|off|CAPACITY] [--threads N] [--strategy shrink|drop] [--updates-log FILE] \
     [--metrics FILE.json] [--log off|info|debug] [--trace FILE.jsonl] [--trace-clock logical|wall] \
     [--profile] [--profile-json FILE] [--expose ADDR] [--expose-hold N] \
     [--quality-window N] [--quality-alert SPEC,...] [--quality-json FILE] \
     | lint RULES.frl [--schema a,b,c | --data FILE.csv] [--format human|json|sarif] \
     [--deny warnings|FR001,...] \
     | certify RULES.frl [--schema a,b,c | --data FILE.csv] [--format human|json|sarif] \
     [--deny warnings|FR001,...] \
     | coverage --rules FILE --data FILE.csv [--engine linear|chase] [--lint] \
     | serve-metrics [--addr HOST:PORT] [--scrapes N] \
     | serve --rules FILE [--addr HOST:PORT] [--threads N] [--engine chase|linear] \
     [--schema a,b,c] [--warm FILE.csv] [--journal FILE.jsonl] [--cache-shards N] \
     [--slo-window N] [--slo-min-samples N] [--slo-max-error-rate F] [--slo-max-p99-ms N] \
     [--trace-sample N] [--quality-window N] [--quality-alert SPEC,...] [--quality-gate] \
     | client repair|check FILE --addr HOST:PORT [--format csv|json] \
     | client rules RULES.frl --addr HOST:PORT \
     | client get PATH --addr HOST:PORT | client shutdown --addr HOST:PORT \
     | scrape URL|FILE [--require METRIC[{k=\"v\",...}]] \
     | quality URL|SNAPSHOT.json [--window W] [--require-green] \
     | explain TRACE.jsonl --row N --attr NAME \
     | trace export TRACE.jsonl --chrome OUT.json \
     | discover --data FILE.csv --fds FILE --out rules.frl [--min-support N] [--min-confidence F]"
        .to_string()
}

/// Static analysis of a rule file: parse (inferring a schema from the
/// rules themselves unless `--schema`/`--data` provides one), run the
/// `fixlint` passes, and render the findings rustc-style or as JSON.
/// Exit status: 2 on operational errors, 1 when any finding is fatal
/// (errors always; plus whatever `--deny` promotes), 0 otherwise.
fn cmd_lint(positional: Option<&str>, flags: &Flags, obs_ctx: &ObsCtx) -> Result<ExitCode, String> {
    let path = positional
        .or_else(|| flags.optional("rules"))
        .ok_or("lint needs a rules file: fixctl lint <rules.frl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let deny = match flags.optional("deny") {
        Some(spec) => fixlint::DenyList::parse(spec)?,
        None => fixlint::DenyList::none(),
    };
    let format = flags.optional("format").unwrap_or("human");
    let mut symbols = SymbolTable::new();
    let schema = if let Some(names) = flags.optional("schema") {
        relation::Schema::new("R", names.split(',').map(str::trim)).map_err(|e| e.to_string())?
    } else if let Some(data_path) = flags.optional("data") {
        relation::csv_io::read_csv_schema(data_path, "data")
            .map_err(|e| format!("reading {data_path}: {e}"))?
    } else {
        match fixrules::io::infer_schema(&text, "R") {
            Ok(schema) => schema,
            // An unparseable file still gets a rendered FR000 report below.
            Err(_) => relation::Schema::new("R", ["_"]).map_err(|e| e.to_string())?,
        }
    };
    let report = {
        let _span = obs_ctx.span("lint");
        fixlint::lint_source(
            &text,
            &schema,
            &mut symbols,
            &fixlint::LintOptions::default(),
        )
    };
    report.observe(&obs_ctx.observer);
    obs::info!(
        "lint.done",
        file = path,
        errors = report.errors(),
        warnings = report.warnings(),
        notes = report.notes()
    );
    match format {
        "json" => println!("{}", report.to_json(path).to_string_pretty()),
        "sarif" => println!("{}", fixlint::render_sarif(&report, path)),
        "human" => print!("{}", fixlint::render_report(&report, path, &text)),
        other => return Err(format!("unknown format `{other}` (human|json|sarif)")),
    }
    if report.fatal(&deny) > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Whole-set chase certification of a rule file: build the interaction
/// graph (termination), commute every interacting critical pair through
/// the compiled engine (confluence), and render the certificate. Exit
/// status mirrors `lint`: 2 on operational errors, 1 when any finding is
/// fatal under `--deny` (FR009/FR010 are errors, hence always fatal),
/// 0 on a green certificate.
fn cmd_certify(
    positional: Option<&str>,
    flags: &Flags,
    obs_ctx: &ObsCtx,
) -> Result<ExitCode, String> {
    let path = positional
        .or_else(|| flags.optional("rules"))
        .ok_or("certify needs a rules file: fixctl certify <rules.frl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let deny = match flags.optional("deny") {
        Some(spec) => fixlint::DenyList::parse(spec)?,
        None => fixlint::DenyList::none(),
    };
    let format = flags.optional("format").unwrap_or("human");
    let mut symbols = SymbolTable::new();
    let schema = if let Some(names) = flags.optional("schema") {
        relation::Schema::new("R", names.split(',').map(str::trim)).map_err(|e| e.to_string())?
    } else if let Some(data_path) = flags.optional("data") {
        relation::csv_io::read_csv_schema(data_path, "data")
            .map_err(|e| format!("reading {data_path}: {e}"))?
    } else {
        match fixrules::io::infer_schema(&text, "R") {
            Ok(schema) => schema,
            // An unparseable file still gets a rendered FR000 report below.
            Err(_) => relation::Schema::new("R", ["_"]).map_err(|e| e.to_string())?,
        }
    };
    let cert = {
        let _span = obs_ctx.span("certify");
        match fixrules::io::parse_rules_spanned(&text, &schema, &mut symbols) {
            Ok(parsed) => fixlint::certify_observed(
                &parsed.rules,
                &parsed.spans,
                &symbols,
                &fixlint::CertOptions::default(),
                &obs_ctx.observer,
            ),
            Err(error) => fixlint::Certificate {
                report: fixlint::parse_error_report(&error),
                ..fixlint::Certificate::default()
            },
        }
    };
    cert.observe(&obs_ctx.observer);
    obs::info!(
        "certify.done",
        file = path,
        certified = cert.is_certified(),
        rules = cert.rules,
        pairs = cert.confluence.pairs_checked,
        violations = cert.confluence.violations
    );
    match format {
        "json" => println!("{}", cert.to_json(path).to_string_pretty()),
        "sarif" => println!("{}", fixlint::render_sarif(&cert.report, path)),
        "human" => {
            print!("{}", fixlint::render_report(&cert.report, path, &text));
            let bound = match cert.termination.round_bound {
                Some(b) => format!("round bound {b}"),
                None => "no order-independent round bound".to_string(),
            };
            println!(
                "{path}: {} — {} rule(s), {}, {} pair(s) checked, {} witness run(s), \
                 {} skipped over budget",
                if cert.is_certified() {
                    "certificate GREEN"
                } else {
                    "certificate RED"
                },
                cert.rules,
                bound,
                cert.confluence.pairs_checked,
                cert.confluence.witness_runs,
                cert.confluence.pairs_skipped
            );
        }
        other => return Err(format!("unknown format `{other}` (human|json|sarif)")),
    }
    if cert.report.fatal(&deny) > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Convert between the `.frl` line format and the portable JSON document,
/// picking the direction from the output extension.
fn cmd_convert(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let out = flags.required("out")?;
    let (_table, rules, symbols) = load::<Table>(flags, obs_ctx)?;
    if out.ends_with(".json") {
        let doc = fixrules::io::to_portable(&rules, &symbols);
        std::fs::write(out, doc.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    } else {
        std::fs::write(out, format_rules(&rules, &symbols))
            .map_err(|e| format!("writing {out}: {e}"))?;
    }
    println!("wrote {out} ({} rules)", rules.len());
    Ok(())
}

/// Discover fixing rules from the data alone (support/confidence over FD
/// groups) and write them as a rule file.
fn cmd_discover(flags: &Flags) -> Result<(), String> {
    let data_path = flags.required("data")?;
    let fds_path = flags.required("fds")?;
    let out = flags.required("out")?;
    let mut symbols = SymbolTable::new();
    let table = relation::csv_io::read_csv_file(data_path, "data", &mut symbols)
        .map_err(|e| format!("reading {data_path}: {e}"))?;
    let fds_text =
        std::fs::read_to_string(fds_path).map_err(|e| format!("reading {fds_path}: {e}"))?;
    let fds = fd::parse::parse_fds(table.schema(), &fds_text)
        .map_err(|e| format!("parsing {fds_path}: {e}"))?;
    let mut config = fixrules::discovery::DiscoveryConfig::default();
    if let Some(s) = flags.optional("min-support") {
        config.min_support = s.parse().map_err(|_| "--min-support N".to_string())?;
    }
    if let Some(c) = flags.optional("min-confidence") {
        config.min_confidence = c.parse().map_err(|_| "--min-confidence F".to_string())?;
    }
    let discovered = fixrules::discovery::discover_all(&table, &fds, config);
    let mut rules = RuleSet::new(table.schema().clone());
    for d in &discovered {
        rules.push(d.rule.clone());
    }
    let log = fixrules::consistency::resolve::ensure_consistent_batch(&mut rules);
    println!(
        "discovered {} rule(s) from {} FD(s); {} resolution action(s) applied",
        rules.len(),
        fds.len(),
        log.actions.len()
    );
    std::fs::write(out, format_rules(&rules, &symbols))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Audit mode: report and explain every update a repair would apply,
/// without writing anything.
fn cmd_detect(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (table, rules, symbols) = load::<Table>(flags, obs_ctx)?;
    let report = check_consistency_observed(&rules, obs_ctx, threads_flag(flags)?);
    if !report.is_consistent() {
        return Err(format!(
            "rule set has {} conflict(s); run `fixctl resolve` first",
            report.conflicts.len()
        ));
    }
    let index = {
        let _span = obs_ctx.span("index_build");
        LRepairIndex::build(&rules)
    };
    let plan = {
        let _span = obs_ctx.span("detect");
        fixrules::repair::detect_table(&rules, &index, &table)
    };
    println!(
        "{} planned update(s) across {} row(s) of {}",
        plan.total_updates(),
        plan.rows_touched(),
        table.len()
    );
    for u in plan.updates.iter().take(100) {
        println!(
            "  {}",
            fixrules::repair::explain(u, &rules, table.schema(), &symbols)
        );
    }
    if plan.total_updates() > 100 {
        println!("  ... and {} more", plan.total_updates() - 100);
    }
    Ok(())
}

/// Load the CSV (schema from header) into a `T` — a [`ColumnTable`] for
/// repair, a [`Table`] for the row-major analyses — and the rule file
/// against it.
fn load<T: CsvTable>(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(T, RuleSet, SymbolTable), String> {
    let _span = obs_ctx.span("load");
    let data_path = flags.required("data")?;
    let rules_path = flags.required("rules")?;
    let mut symbols = SymbolTable::new();
    let table: T = read_csv_file_as(data_path, "data", &mut symbols)
        .map_err(|e| format!("reading {data_path}: {e}"))?;
    let rules = parse_rules_file(rules_path, table.schema(), &mut symbols)?;
    obs::info!(
        "load.done",
        rows = table.num_rows(),
        rules = rules.len(),
        vocab = symbols.len()
    );
    Ok((table, rules, symbols))
}

/// Read and parse a rule file against `schema`.
fn parse_rules_file(
    rules_path: &str,
    schema: &Schema,
    symbols: &mut SymbolTable,
) -> Result<RuleSet, String> {
    let text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("reading {rules_path}: {e}"))?;
    parse_rules(&text, schema, symbols).map_err(|e| format!("parsing {rules_path}: {e}"))
}

/// The engine flavor an `--engine` spelling names. There is one repair
/// path; the flavor only picks whose output (and `round` stamps) it
/// reproduces: `linear` → `lRepair`, `chase` → `cRepair`. The spellings
/// of the retired drivers stay accepted as aliases.
fn engine_flavor(spelling: &str) -> Result<CompiledEngine, String> {
    match spelling {
        "linear" | "lrepair" | "compiled" | "columnar" => Ok(CompiledEngine::Linear),
        "chase" | "crepair" | "compiled-chase" | "columnar-chase" => Ok(CompiledEngine::Chase),
        other => Err(format!(
            "unknown engine `{other}` (linear|chase|stream; aliases lrepair|compiled|columnar \
             and crepair|compiled-chase|columnar-chase)"
        )),
    }
}

/// `--threads N` (default 1 = sequential).
fn threads_flag(flags: &Flags) -> Result<usize, String> {
    match flags.optional("threads") {
        Some(t) => t
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "--threads takes a worker count >= 1".to_string()),
        None => Ok(1),
    }
}

/// `--plan-cache on|off|CAPACITY`; `None` means the flag was absent and the
/// default (`on`) applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheSpec {
    Off,
    On,
    Bounded(usize),
}

fn plan_cache_flag(flags: &Flags) -> Result<Option<CacheSpec>, String> {
    match flags.optional("plan-cache") {
        None => Ok(None),
        Some("on") => Ok(Some(CacheSpec::On)),
        Some("off") => Ok(Some(CacheSpec::Off)),
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|&c| c >= 1)
            .map(|c| Some(CacheSpec::Bounded(c)))
            .ok_or_else(|| format!("--plan-cache takes on, off, or a capacity >= 1 (got `{n}`)")),
    }
}

/// Build the plan cache an engine run should use: sharded when parallel
/// workers will share it, exact-LRU when a capacity was requested.
fn build_plan_cache(spec: CacheSpec, threads: usize) -> Option<PlanCache> {
    match (spec, threads) {
        (CacheSpec::Off, _) => None,
        (CacheSpec::On, 1) => Some(PlanCache::unbounded()),
        (CacheSpec::On, t) => Some(PlanCache::sharded(t * 4)),
        (CacheSpec::Bounded(c), 1) => Some(PlanCache::bounded_lru(c)),
        (CacheSpec::Bounded(c), t) => Some(PlanCache::sharded_bounded(t * 4, c)),
    }
}

/// Log and print one plan-cache summary line after a cached run.
fn report_plan_cache(cache: &PlanCache) {
    let stats = cache.stats();
    obs::info!(
        "plan_cache.done",
        hits = stats.hits,
        misses = stats.misses,
        evictions = stats.evictions,
        plans = stats.entries
    );
    println!(
        "plan cache: {} hit(s), {} miss(es), {} eviction(s), {} plan(s) held",
        stats.hits, stats.misses, stats.evictions, stats.entries
    );
}

/// Labels for the attribution profiler: rule `i` becomes `r{i}`, tagged
/// with the name of the attribute its fix writes (the rule's B attribute).
fn rule_labels(rules: &RuleSet) -> Vec<RuleLabel> {
    rules
        .iter()
        .map(|(id, rule)| RuleLabel {
            rule: format!("r{}", id.0),
            attr: rules.schema().attr_name(rule.b()).to_string(),
        })
        .collect()
}

/// Build the attribution observer when `--profile` or `--profile-json`
/// asks for one. Latency collection rides on `--profile` (the table shows
/// quantiles); the JSON rendering never includes measured nanoseconds, so
/// `--profile-json` stays byte-deterministic either way.
fn attribution_for(
    flags: &Flags,
    obs_ctx: &ObsCtx,
    rules: &RuleSet,
) -> Option<AttributionObserver> {
    (flags.switch("profile") || flags.optional("profile-json").is_some()).then(|| {
        AttributionObserver::new(&obs_ctx.registry, rule_labels(rules))
            .with_timing(flags.switch("profile"))
    })
}

/// Print/write the per-rule profile after a run, per `--profile` and
/// `--profile-json`.
fn emit_profile(flags: &Flags, attribution: Option<&AttributionObserver>) -> Result<(), String> {
    let Some(attribution) = attribution else {
        return Ok(());
    };
    let profile = attribution.profile();
    if flags.switch("profile") {
        print!("{}", profile.render_table());
    }
    if let Some(path) = flags.optional("profile-json") {
        std::fs::write(path, profile.to_json().to_string_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `--expose-hold N`: how many scrapes to wait for before shutting the
/// endpoint down after the run.
fn expose_hold_flag(flags: &Flags) -> Result<Option<u64>, String> {
    match flags.optional("expose-hold") {
        None => Ok(None),
        Some(n) => n
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .map(Some)
            .ok_or_else(|| "--expose-hold takes a scrape count >= 1".to_string()),
    }
}

/// `--expose ADDR`: start the scrape endpoint over the shared registry
/// before the repair runs, printing the resolved URL (`:0` binds an
/// ephemeral port) on a flushed line so a harness can scrape mid-run.
fn start_expose(flags: &Flags, obs_ctx: &ObsCtx) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = flags.optional("expose") else {
        if flags.optional("expose-hold").is_some() {
            return Err("--expose-hold needs --expose ADDR".to_string());
        }
        return Ok(None);
    };
    let server = MetricsServer::bind(addr, obs_ctx.registry.clone())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serving metrics on http://{}/metrics", server.addr());
    std::io::stdout().flush().ok();
    obs::info!("expose.bound", addr = format!("{}", server.addr()));
    Ok(Some(server))
}

/// Honor `--expose-hold`, then stop the endpoint.
fn finish_expose(hold: Option<u64>, server: Option<MetricsServer>) {
    let Some(server) = server else { return };
    if let Some(n) = hold {
        server.wait_for_scrapes(n);
        println!("served {} scrape(s)", server.scrapes());
    }
    server.shutdown();
}

/// The pairwise `isConsist_r` check, timed and fed into the observer;
/// `threads > 1` partitions the pairs across workers (stopping at the
/// lowest-indexed conflict).
fn check_consistency_observed(
    rules: &RuleSet,
    obs_ctx: &ObsCtx,
    threads: usize,
) -> ConsistencyReport {
    let _span = obs_ctx.span("consistency_check");
    let report = if threads > 1 {
        is_consistent_parallel_observed(rules, threads, &obs_ctx.observer)
    } else {
        is_consistent_characterize_observed(rules, usize::MAX, &obs_ctx.observer)
    };
    obs::info!(
        "consistency.done",
        pairs_checked = report.pairs_checked,
        conflicts = report.conflicts.len()
    );
    report
}

fn cmd_check(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (_table, rules, symbols) = load::<Table>(flags, obs_ctx)?;
    let report = check_consistency_observed(&rules, obs_ctx, threads_flag(flags)?);
    println!(
        "{} rules, size(Σ) = {}, {} pairs checked",
        rules.len(),
        rules.size(),
        report.pairs_checked
    );
    if report.is_consistent() {
        println!("consistent ✓");
        Ok(())
    } else {
        println!(
            "INCONSISTENT — {} conflicting pair(s):",
            report.conflicts.len()
        );
        for c in report.conflicts.iter().take(20) {
            println!("  [{}] vs [{}]  ({:?})", c.first.0, c.second.0, c.case);
            println!(
                "    {}",
                rules.rule(c.first).display(rules.schema(), &symbols)
            );
            println!(
                "    {}",
                rules.rule(c.second).display(rules.schema(), &symbols)
            );
            // Materialize a concrete two-fixpoint witness when the pair's
            // candidate space is small enough; each one is counted in the
            // `consistency.witness_found` metric.
            if let Some(w) = conflict_witness(&rules, c, 4096) {
                obs_ctx.observer.on(RepairEvent::WitnessFound);
                println!(
                    "    witness: ({}) can end as ({}) or ({})",
                    render_tuple(&w.tuple, &symbols),
                    render_tuple(&w.fixes[0], &symbols),
                    render_tuple(&w.fixes[1], &symbols)
                );
            }
        }
        if report.conflicts.len() > 20 {
            println!("  ... and {} more", report.conflicts.len() - 20);
        }
        Err("rule set is inconsistent (run `fixctl resolve`)".into())
    }
}

/// Render a witness tuple; attributes unconstrained by either rule hold
/// the enumeration wildcard and print as `_`.
fn render_tuple(tuple: &[Symbol], symbols: &SymbolTable) -> String {
    tuple
        .iter()
        .map(|&s| {
            if s == WILDCARD {
                "_".to_string()
            } else {
                format!("\"{}\"", symbols.resolve(s))
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run a repair with the attribution profiler attached and print the
/// ranked per-rule table; with `--lint`, join the runtime profile against
/// the static analysis (FR007: live rule that never fired; FR008: rule
/// flagged dead that did fire) and render the findings rustc-style.
fn cmd_coverage(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let data_path = flags.required("data")?;
    let rules_path = flags.required("rules")?;
    let mut symbols = SymbolTable::new();
    let mut columns: ColumnTable = {
        let _span = obs_ctx.span("load");
        read_csv_file_as(data_path, "data", &mut symbols)
            .map_err(|e| format!("reading {data_path}: {e}"))?
    };
    let text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("reading {rules_path}: {e}"))?;
    let parsed = parse_rules_spanned(&text, columns.schema(), &mut symbols)
        .map_err(|e| format!("parsing {rules_path}: {e}"))?;
    let rules = parsed.rules;
    let report = check_consistency_observed(&rules, obs_ctx, 1);
    if !report.is_consistent() {
        return Err(format!(
            "rule set has {} conflict(s); run `fixctl resolve` first",
            report.conflicts.len()
        ));
    }
    let attribution =
        AttributionObserver::new(&obs_ctx.registry, rule_labels(&rules)).with_timing(true);
    let observer = Tee(&obs_ctx.observer, &attribution);
    let engine = engine_flavor(flags.optional("engine").unwrap_or("lrepair"))?;
    let program = RuleProgram::compile(&rules);
    let cache = PlanCache::unbounded();
    {
        let _span = obs_ctx.span("repair");
        columnar_table_observed(
            &rules,
            &program,
            engine,
            Some(&cache),
            &mut columns,
            &observer,
        );
    }
    let profile = attribution.profile();
    print!("{}", profile.render_table());
    if let Some(path) = flags.optional("profile-json") {
        std::fs::write(path, profile.to_json().to_string_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if flags.switch("lint") {
        let lint_report = fixlint::lint(
            &rules,
            &parsed.spans,
            &symbols,
            &fixlint::LintOptions::default(),
        );
        // Rows carry the `r{i}` labels built above; fold them back into
        // rule-id order for the join (the catch-all row has no id).
        let mut activity = vec![fixlint::RuleActivity::default(); rules.len()];
        for row in &profile.rows {
            if let Some(i) = row
                .rule
                .strip_prefix('r')
                .and_then(|s| s.parse::<usize>().ok())
            {
                if let Some(slot) = activity.get_mut(i) {
                    slot.applied = row.applied;
                    slot.rejected = row.rejected;
                }
            }
        }
        let coverage = fixlint::coverage_join(&lint_report, &parsed.spans, &activity);
        print!("{}", fixlint::render_report(&coverage, rules_path, &text));
    }
    Ok(())
}

/// Standalone scrape endpoint over this process's registry — the mount
/// point external harnesses poll. `--scrapes N` exits after `N` scrapes
/// have been served; without it the server runs until killed.
fn cmd_serve_metrics(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let addr = flags.optional("addr").unwrap_or("127.0.0.1:0");
    let server = MetricsServer::bind(addr, obs_ctx.registry.clone())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serving metrics on http://{}/metrics", server.addr());
    std::io::stdout().flush().ok();
    match flags.optional("scrapes") {
        Some(n) => {
            let n: u64 = n
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "--scrapes takes a count >= 1".to_string())?;
            server.wait_for_scrapes(n);
            println!("served {} scrape(s)", server.scrapes());
            server.shutdown();
            Ok(())
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}

/// Fetch a Prometheus exposition (over HTTP, or from a file written by a
/// previous scrape) and validate it with the in-repo text-format parser.
/// Exit 1 when `--require NAME` names a metric the exposition lacks.
fn cmd_scrape(positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let target =
        positional.ok_or("scrape needs a target: fixctl scrape http://HOST:PORT/metrics")?;
    let text = if target.starts_with("http://") {
        let (status, body) = http_get(target).map_err(|e| format!("fetching {target}: {e}"))?;
        if status != 200 {
            return Err(format!("{target} answered HTTP {status}"));
        }
        body
    } else {
        std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?
    };
    let samples =
        parse_prometheus(&text).map_err(|e| format!("invalid exposition from {target}: {e}"))?;
    let mut names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "{target}: exposition OK, {} sample(s) across {} metric(s)",
        samples.len(),
        names.len()
    );
    if let Some(required) = flags.optional("require") {
        if !require_present(&samples, required)? {
            println!("required metric `{required}` is missing");
            return Ok(ExitCode::from(1));
        }
        println!("required metric `{required}` present");
    }
    Ok(ExitCode::SUCCESS)
}

/// Does any scraped sample satisfy `required`? A bare name (`up`) matches
/// on the sanitized metric name alone; a labeled series
/// (`http.requests{endpoint="repair"}`) additionally needs every required
/// label pair on the same sample, in any order, extra labels allowed.
fn require_present(samples: &[obs::PromSample], required: &str) -> Result<bool, String> {
    let (raw_name, raw_block) = obs::expose::split_series(required);
    let name = obs::expose::sanitize_name(raw_name);
    let required_pairs = obs::parse_label_pairs(raw_block)
        .map_err(|e| format!("bad --require series {required:?}: {e}"))?;
    Ok(samples.iter().any(|sample| {
        if sample.name != name {
            return false;
        }
        if required_pairs.is_empty() {
            return true;
        }
        // The exposition already validated, so its blocks parse.
        let pairs = obs::parse_label_pairs(&sample.labels).unwrap_or_default();
        required_pairs.iter().all(|pair| pairs.contains(pair))
    }))
}

/// Parse `--quality-alert` as comma-separated [`AlertRule`] specs, e.g.
/// `drift>0.5,repair_rate:city>0.25`.
fn quality_alerts_flag(flags: &Flags) -> Result<Vec<AlertRule>, String> {
    match flags.optional("quality-alert") {
        Some(specs) => specs
            .split(',')
            .map(|spec| AlertRule::parse(spec.trim()))
            .collect(),
        None => Ok(Vec::new()),
    }
}

/// Fetch a repair-quality snapshot — from a running daemon's
/// `GET /quality`, or from a file written by `repair --quality-json` —
/// and render the per-window signal table. Exit 1 when `--require-green`
/// finds active alerts (the CI spelling of "is the data still healthy?").
fn cmd_quality(positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let target = positional
        .ok_or("quality needs a target: fixctl quality http://HOST:PORT | snapshot.json")?;
    let text = if target.starts_with("http://") {
        // Accept both a daemon base URL and the endpoint itself.
        let url = if target.ends_with("/quality") {
            target.to_string()
        } else {
            format!("{}/quality", target.trim_end_matches('/'))
        };
        let (status, body) = http_get(&url).map_err(|e| format!("fetching {url}: {e}"))?;
        if status != 200 {
            return Err(format!("{url} answered HTTP {status}"));
        }
        body
    } else {
        std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?
    };
    let snapshot =
        obs::json::parse(&text).map_err(|e| format!("invalid snapshot from {target}: {e}"))?;
    let last = match flags.optional("window") {
        Some(n) => Some(
            n.parse()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| format!("--window: bad value `{n}` (newest N windows)"))?,
        ),
        None => None,
    };
    print!("{}", render_snapshot(&snapshot, last)?);
    if flags.switch("require-green") {
        let alerts = snapshot
            .get("alerts")
            .and_then(|j| j.as_arr())
            .map_or(0, |arr| arr.len());
        if alerts > 0 {
            println!("require-green: {alerts} active alert(s)");
            return Ok(ExitCode::from(1));
        }
        println!("require-green: no active alerts");
    }
    Ok(ExitCode::SUCCESS)
}

/// Run the long-lived `fixd` repair daemon in the foreground: rules are
/// loaded, linted, and compiled once, then every `POST /repair` batch
/// shares one warm plan cache. Blocks until `POST /shutdown` drains it.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let mut config = fixd::DaemonConfig {
        rules: fixd::RulesSource::Path(flags.required("rules")?.to_string()),
        ..fixd::DaemonConfig::default()
    };
    if let Some(addr) = flags.optional("addr") {
        config.addr = addr.to_string();
    }
    if let Some(threads) = flags.optional("threads") {
        config.threads = threads
            .parse()
            .map_err(|_| format!("--threads: bad value `{threads}`"))?;
    }
    if let Some(shards) = flags.optional("cache-shards") {
        config.cache_shards = shards
            .parse()
            .map_err(|_| format!("--cache-shards: bad value `{shards}`"))?;
    }
    if let Some(names) = flags.optional("schema") {
        config.schema =
            fixd::SchemaSource::Names(names.split(',').map(|s| s.trim().to_string()).collect());
    }
    if let Some(engine) = flags.optional("engine") {
        config.engine = engine_flavor(engine)?;
    }
    if let Some(cache) = flags.optional("plan-cache") {
        config.plan_cache = match cache {
            "on" => true,
            "off" => false,
            other => return Err(format!("unknown --plan-cache `{other}` (on|off)")),
        };
    }
    if let Some(path) = flags.optional("journal") {
        config.journal_path = Some(path.to_string());
    }
    if let Some(path) = flags.optional("warm") {
        config.warm = Some(path.to_string());
    }
    if let Some(clock) = flags.optional("trace-clock") {
        config.trace_clock = match clock {
            "logical" => TraceClock::Logical,
            "wall" => TraceClock::Wall,
            other => return Err(format!("unknown --trace-clock `{other}` (logical|wall)")),
        };
    }
    if let Some(window) = flags.optional("slo-window") {
        config.slo.window = window
            .parse()
            .map_err(|_| format!("--slo-window: bad value `{window}`"))?;
    }
    if let Some(min) = flags.optional("slo-min-samples") {
        config.slo.min_samples = min
            .parse()
            .map_err(|_| format!("--slo-min-samples: bad value `{min}`"))?;
    }
    if let Some(rate) = flags.optional("slo-max-error-rate") {
        config.slo.max_error_rate = rate
            .parse()
            .map_err(|_| format!("--slo-max-error-rate: bad value `{rate}`"))?;
    }
    if let Some(ms) = flags.optional("slo-max-p99-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--slo-max-p99-ms: bad value `{ms}`"))?;
        config.slo.max_p99_ns = ms.saturating_mul(1_000_000);
    }
    if let Some(sample) = flags.optional("trace-sample") {
        config.trace_sample = sample
            .parse()
            .map_err(|_| format!("--trace-sample: bad value `{sample}` (rows per request)"))?;
    }
    if let Some(window) = flags.optional("quality-window") {
        config.quality_window = window
            .parse()
            .map_err(|_| format!("--quality-window: bad value `{window}` (rows, 0 disables)"))?;
    }
    config.quality_alerts = quality_alerts_flag(flags)?;
    config.quality_gate = flags.switch("quality-gate");
    if config.quality_gate && config.quality_window == 0 {
        return Err("--quality-gate needs quality monitoring (--quality-window > 0)".to_string());
    }
    let daemon = fixd::Daemon::start(config).map_err(|e| format!("starting fixd: {e}"))?;
    println!("fixd listening on http://{}", daemon.addr());
    daemon.wait();
    println!("fixd drained and stopped");
    Ok(())
}

/// Normalize `--addr` into a base URL (a bare `host:port` is accepted).
fn client_base(flags: &Flags) -> Result<String, String> {
    let addr = flags.required("addr")?;
    Ok(if addr.starts_with("http://") {
        addr.trim_end_matches('/').to_string()
    } else {
        format!("http://{addr}")
    })
}

/// Thin HTTP client for a running `fixd` daemon: post a repair/check
/// batch from a file, fetch any GET endpoint, or request a graceful
/// shutdown. Prints the response body; exit status 1 on a non-2xx reply.
fn cmd_client(sub: &str, positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let base = client_base(flags)?;
    let reply =
        match sub {
            "repair" | "check" => {
                let data = positional.or_else(|| flags.optional("data")).ok_or_else(|| {
                format!("client {sub} needs a batch file: fixctl client {sub} rows.csv --addr ...")
            })?;
                let body = std::fs::read(data).map_err(|e| format!("reading {data}: {e}"))?;
                let content_type = if data.ends_with(".json") {
                    "application/json"
                } else {
                    "text/csv"
                };
                let query = match flags.optional("format") {
                    Some("csv") => "?format=csv",
                    Some("json") | None => "",
                    Some(other) => return Err(format!("unknown --format `{other}` (csv|json)")),
                };
                obs::http_post(&format!("{base}/{sub}{query}"), content_type, &body)
            }
            "get" => {
                let path = positional
                    .ok_or("client get needs a path, e.g. fixctl client get /readyz --addr ...")?;
                obs::http_request("GET", &format!("{base}{path}"), "text/plain", b"")
            }
            "rules" => {
                let path = positional
                    .or_else(|| flags.optional("rules"))
                    .ok_or_else(|| {
                        "client rules needs a rule file: fixctl client rules rules.frl --addr ..."
                            .to_string()
                    })?;
                let body = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
                obs::http_post(&format!("{base}/rules"), "text/plain", &body)
            }
            "shutdown" => obs::http_post(&format!("{base}/shutdown"), "text/plain", b""),
            other => return Err(format!("unknown client subcommand `{other}`")),
        }
        .map_err(|e| format!("talking to {base}: {e}"))?;
    if let Some((_, trace_id)) = reply
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("x-trace-id"))
    {
        eprintln!("trace id: {trace_id}");
    }
    print!("{}", reply.body);
    if !reply.body.ends_with('\n') {
        println!();
    }
    Ok(if reply.status < 400 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_resolve(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (_table, mut rules, symbols) = load::<Table>(flags, obs_ctx)?;
    let strategy = match flags.optional("strategy").unwrap_or("shrink") {
        "shrink" => Strategy::ShrinkNegatives,
        "drop" => Strategy::Conservative,
        other => return Err(format!("unknown strategy `{other}` (shrink|drop)")),
    };
    let before = rules.len();
    let log = {
        let _span = obs_ctx.span("resolve");
        ensure_consistent(&mut rules, strategy)
    };
    println!(
        "resolved in {} round(s): {} negative pattern(s) removed, {} rule(s) removed ({} -> {})",
        log.rounds,
        log.negatives_removed(),
        log.rules_removed(),
        before,
        rules.len()
    );
    let out = flags.required("out")?;
    std::fs::write(out, format_rules(&rules, &symbols))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Records per batch on the streaming path: bounds the stream's working
/// set to `STREAM_BATCH_ROWS × arity` cells while letting duplicate
/// signatures within a batch share one engine run.
const STREAM_BATCH_ROWS: usize = 1024;

fn cmd_repair(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    // `--engine` is the current spelling; `--algo` stays as an alias.
    let algo = flags
        .optional("engine")
        .or_else(|| flags.optional("algo"))
        .unwrap_or("lrepair");
    let streaming = algo == "stream";
    // The stream repairs with the linear flavor, as `lRepair` always did.
    let engine = if streaming {
        CompiledEngine::Linear
    } else {
        engine_flavor(algo)?
    };
    let threads = threads_flag(flags)?;
    let cache_spec = plan_cache_flag(flags)?.unwrap_or(CacheSpec::On);
    let hold = expose_hold_flag(flags)?;
    if !streaming && flags.optional("quality-window").is_some() {
        return Err(format!(
            "--quality-window only applies to the stream engine (got `{algo}`)"
        ));
    }
    if streaming && threads > 1 {
        return Err(
            "--threads does not apply to the stream engine (one pass, one reader)".to_string(),
        );
    }
    // A stream reads only the CSV header up front (no table), so memory
    // stays bounded by the batch and the vocabulary, not by the file.
    let (input, rules, mut symbols) = if streaming {
        let _span = obs_ctx.span("load");
        let data_path = flags.required("data")?;
        let rules_path = flags.required("rules")?;
        let schema = relation::csv_io::read_csv_schema(data_path, "data")
            .map_err(|e| format!("reading {data_path}: {e}"))?;
        let mut symbols = SymbolTable::new();
        let rules = parse_rules_file(rules_path, &schema, &mut symbols)?;
        obs::info!("load.done", rules = rules.len(), vocab = symbols.len());
        (None, rules, symbols)
    } else {
        let (columns, rules, symbols) = load::<ColumnTable>(flags, obs_ctx)?;
        (Some(columns), rules, symbols)
    };
    // The endpoint goes up before any repair work so a scraper can watch
    // the counters move while the run is in flight.
    let server = start_expose(flags, obs_ctx)?;
    let report = check_consistency_observed(&rules, obs_ctx, threads);
    if !report.is_consistent() {
        return Err(format!(
            "rule set has {} conflict(s); run `fixctl resolve` first",
            report.conflicts.len()
        ));
    }
    let program = {
        let _span = obs_ctx.span("compile");
        RuleProgram::compile(&rules)
    };
    let cache = {
        let _span = obs_ctx.span("plan_cache");
        // A stream has no end, so its cache must not grow without bound:
        // `on` means an LRU holding 4096 plans.
        match (streaming, cache_spec) {
            (true, CacheSpec::On) => Some(PlanCache::bounded_lru(4096)),
            _ => build_plan_cache(cache_spec, threads),
        }
    };
    // `--quality-window` hangs a QualityMonitor off the same observer
    // chain: tumbling windows of pre/post sketches over the stream,
    // summarized as a per-window table after the run.
    let quality = match flags.optional("quality-window") {
        Some(n) => {
            let window: usize = n
                .parse()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| format!("--quality-window: bad value `{n}` (rows >= 1)"))?;
            let cfg = QualityConfig {
                window_rows: window,
                alerts: quality_alerts_flag(flags)?,
                ..QualityConfig::default()
            };
            let names = rules.schema().attr_names().map(str::to_string).collect();
            Some(QualityMonitor::new(cfg, names).with_registry(&obs_ctx.registry))
        }
        None => None,
    };
    let ledger = ProvenanceLedger::new();
    // Optional observers (provenance for `--trace`, attribution for
    // `--profile*`, quality for `--quality-window`) tee onto the metrics
    // observer as trait objects. `RepairObserver` is implemented for `&T`,
    // so the generic drivers take the assembled `&dyn` chain (one virtual
    // `on` call per event) instead of monomorphizing each Tee/no-Tee
    // combination.
    let attribution = attribution_for(flags, obs_ctx, &rules);
    let prov = obs_ctx
        .journal
        .is_some()
        .then(|| ProvenanceObserver::new(&rules, &ledger));
    let tee_prov;
    let tee_attr;
    let tee_quality;
    let mut observer: &dyn RepairObserver = &obs_ctx.observer;
    if let Some(p) = &prov {
        tee_prov = Tee(observer, p as &dyn RepairObserver);
        observer = &tee_prov;
    }
    if let Some(a) = &attribution {
        tee_attr = Tee(observer, a as &dyn RepairObserver);
        observer = &tee_attr;
    }
    if let Some(q) = &quality {
        tee_quality = Tee(observer, q as &dyn RepairObserver);
        observer = &tee_quality;
    }
    let out = flags.required("out")?;
    let repaired = match input {
        None => {
            let data_path = flags.required("data")?;
            let reader =
                std::fs::File::open(data_path).map_err(|e| format!("opening {data_path}: {e}"))?;
            let writer = std::io::BufWriter::new(
                std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?,
            );
            let started = std::time::Instant::now();
            let (stats, batch) = {
                let _span = obs_ctx.span("repair");
                stream_repair_csv(
                    &rules,
                    &program,
                    engine,
                    cache.as_ref(),
                    &mut symbols,
                    reader,
                    writer,
                    STREAM_BATCH_ROWS,
                    &observer,
                )
                .map_err(|e| format!("streaming: {e}"))?
            };
            obs::info!(
                "repair.done",
                algo = algo,
                rows = stats.rows,
                updates = stats.updates,
                rows_per_sec = format!("{:.0}", stats.rows_per_sec(started.elapsed()))
            );
            print_batch(&batch);
            println!(
                "{} update(s) across {} row(s) of {} (streamed)",
                stats.updates, stats.rows_touched, stats.rows
            );
            None
        }
        Some(mut columns) => {
            let (outcome, batch) = {
                let _span = obs_ctx.span("repair");
                if threads > 1 {
                    par_columnar_table_observed(
                        &rules,
                        &program,
                        engine,
                        cache.as_ref(),
                        &mut columns,
                        threads,
                        &observer,
                    )
                } else {
                    columnar_table_observed(
                        &rules,
                        &program,
                        engine,
                        cache.as_ref(),
                        &mut columns,
                        &observer,
                    )
                }
            };
            let stats = outcome.stats(columns.len());
            obs::info!(
                "repair.done",
                algo = algo,
                rows = stats.rows,
                updates = stats.updates,
                rows_touched = stats.rows_touched
            );
            print_batch(&batch);
            println!(
                "{} update(s) across {} row(s) of {}",
                stats.updates, stats.rows_touched, stats.rows
            );
            Some((columns, outcome))
        }
    };
    if let Some(cache) = &cache {
        report_plan_cache(cache);
    }
    if let Some(journal) = &obs_ctx.journal {
        write_trace_events(journal, &rules, &symbols, &ledger, algo);
    }
    if let Some(quality) = &quality {
        // Seal the trailing partial window so the table covers every
        // row, then print the per-window signal summary.
        quality.flush();
        print!("{}", quality.render_table());
        if let Some(path) = flags.optional("quality-json") {
            std::fs::write(path, quality.snapshot().to_string_pretty() + "\n")
                .map_err(|e| format!("writing {path}: {e}"))?;
            obs::info!("quality.written", path = path);
        }
    }
    if let Some((columns, _)) = &repaired {
        let _span = obs_ctx.span("write");
        write_csv_file(out, columns, &symbols).map_err(|e| format!("writing {out}: {e}"))?;
    }
    println!("wrote {out}");
    if let (Some((_, outcome)), Some(log_path)) = (&repaired, flags.optional("updates-log")) {
        write_updates_log(log_path, &rules, &symbols, outcome)
            .map_err(|e| format!("writing {log_path}: {e}"))?;
        println!("wrote {log_path}");
    }
    emit_profile(flags, attribution.as_ref())?;
    finish_expose(hold, server);
    Ok(())
}

/// `--updates-log`: one CSV record per cell update, in application order.
fn write_updates_log(
    path: &str,
    rules: &RuleSet,
    symbols: &SymbolTable,
    outcome: &RepairOutcome,
) -> relation::Result<()> {
    let mut w = CsvWriter::new(std::fs::File::create(path)?);
    w.write_record(["row", "attribute", "old", "new", "rule"])?;
    for u in &outcome.updates {
        w.write_record([
            u.row.to_string().as_str(),
            rules.schema().attr_name(u.attr),
            symbols.resolve(u.old),
            symbols.resolve(u.new),
            u.rule.0.to_string().as_str(),
        ])?;
    }
    w.finish()
}

/// Print the group-by shape of a repair run.
fn print_batch(batch: &BatchStats) {
    println!(
        "batch: {} rows, {} distinct signatures ({} scattered)",
        batch.rows, batch.groups, batch.scattered
    );
}

/// Dump the run metadata, rule texts, and provenance ledger into the trace
/// journal as instant events; `fixctl explain` reconstructs rule chains
/// from exactly these records.
fn write_trace_events(
    journal: &TraceJournal,
    rules: &RuleSet,
    symbols: &SymbolTable,
    ledger: &ProvenanceLedger,
    algo: &str,
) {
    let schema = rules.schema();
    let attrs: Vec<Json> = schema.attr_names().map(Json::from).collect();
    journal.event(
        "trace.meta",
        0,
        Json::obj([
            ("algo", Json::from(algo)),
            ("attrs", Json::Arr(attrs)),
            ("schema", Json::from(schema.name())),
        ]),
    );
    for (id, rule) in rules.iter() {
        journal.event(
            "rule",
            0,
            Json::obj([
                ("id", Json::from(u64::from(id.0))),
                (
                    "text",
                    Json::from(format_rule(rule, schema, symbols).as_str()),
                ),
            ]),
        );
    }
    for rec in ledger.records() {
        journal.event("repair.cell", 0, rec.to_json(schema, symbols));
    }
}

/// Reconstruct and render the causal rule chain behind one repaired cell,
/// from a journal written by `fixctl repair --trace`. Exit status: 1 when
/// the cell was never repaired, 0 when a chain is rendered.
fn cmd_explain(positional: Option<&str>, flags: &Flags) -> Result<ExitCode, String> {
    let path = positional
        .or_else(|| flags.optional("trace"))
        .ok_or("explain needs a journal: fixctl explain <trace.jsonl> --row N --attr NAME")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let records = parse_jsonl(&text)?;
    // Rebuild the run context from the journal's instant events.
    let meta = records
        .iter()
        .find(|r| r.phase == TracePhase::Event && r.name == "trace.meta")
        .ok_or("journal has no `trace.meta` event (was it written by `fixctl repair --trace`?)")?;
    let attr_names: Vec<String> = meta
        .fields
        .get("attrs")
        .and_then(Json::as_arr)
        .ok_or("trace.meta has no `attrs` array")?
        .iter()
        .filter_map(|a| a.as_str().map(str::to_string))
        .collect();
    let schema_name = meta
        .fields
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("R");
    let algo = meta
        .fields
        .get("algo")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let schema = Schema::new(schema_name, attr_names.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;
    let mut rule_texts: Vec<String> = Vec::new();
    for r in &records {
        if r.phase != TracePhase::Event || r.name != "rule" {
            continue;
        }
        let Some(id) = r.fields.get("id").and_then(Json::as_i64) else {
            continue;
        };
        let rule_text = r.fields.get("text").and_then(Json::as_str).unwrap_or("");
        let id = id as usize;
        if rule_texts.len() <= id {
            rule_texts.resize(id + 1, String::new());
        }
        rule_texts[id] = rule_text.to_string();
    }
    let mut symbols = SymbolTable::new();
    let mut cells: Vec<ProvenanceRecord> = Vec::new();
    for r in &records {
        if r.phase == TracePhase::Event && r.name == "repair.cell" {
            cells.push(ProvenanceRecord::from_json(
                &r.fields,
                &schema,
                &mut symbols,
            )?);
        }
    }
    let row: usize = flags
        .required("row")?
        .parse()
        .map_err(|_| "--row takes a 0-based row index".to_string())?;
    let attr_name = flags.required("attr")?;
    let attr = schema.attr(attr_name).ok_or_else(|| {
        format!(
            "unknown attribute `{attr_name}` (schema: {})",
            attr_names.join(", ")
        )
    })?;
    let mut row_records: Vec<ProvenanceRecord> =
        cells.into_iter().filter(|r| r.row == row).collect();
    row_records.sort_by_key(|r| r.ordinal);
    let chain_ix = fixrules::provenance::chain(&row_records, attr);
    if chain_ix.is_empty() {
        println!("no repair recorded for row {row}, attribute `{attr_name}`");
        return Ok(ExitCode::from(1));
    }
    let chain: Vec<&ProvenanceRecord> = chain_ix.iter().map(|&i| &row_records[i]).collect();
    // Render rustc-style over a synthesized "source" where line N holds the
    // text of rule N-1, so each chain link underlines the rule that fired.
    let source = rule_texts.join("\n");
    let last = chain.last().expect("chain is non-empty");
    let header = format!(
        "fix[row {row}, {attr_name}]: \"{}\" -> \"{}\"",
        symbols.resolve(last.old),
        symbols.resolve(last.new)
    );
    let location = format!("{path} (row {row})");
    let mut excerpts = Vec::new();
    for (step, rec) in chain.iter().enumerate() {
        let rule_ix = rec.rule.0 as usize;
        let text_len = rule_texts.get(rule_ix).map_or(1, |t| t.len().max(1));
        let evidence: Vec<String> = rec
            .evidence
            .iter()
            .map(|&(a, v)| format!("{} = \"{}\"", schema.attr_name(a), symbols.resolve(v)))
            .collect();
        excerpts.push(fixlint::Excerpt {
            span: Span::new(rule_ix + 1, 1, text_len),
            marker: if step + 1 == chain.len() { '^' } else { '-' },
            label: format!(
                "step {}: {} \"{}\" -> \"{}\" (round {}, evidence: {})",
                step + 1,
                schema.attr_name(rec.attr),
                symbols.resolve(rec.old),
                symbols.resolve(rec.new),
                rec.round,
                evidence.join(", ")
            ),
        });
    }
    let notes = vec![format!(
        "chain of {} rule application(s) recorded by `{algo}`",
        chain.len()
    )];
    print!(
        "{}",
        fixlint::render_block(&header, &location, &excerpts, &notes, &source)
    );
    Ok(ExitCode::SUCCESS)
}

/// Convert a JSONL trace journal to Chrome trace-event JSON (viewable in
/// Perfetto / `chrome://tracing`).
fn cmd_trace_export(positional: Option<&str>, flags: &Flags) -> Result<(), String> {
    let path = positional.or_else(|| flags.optional("trace")).ok_or(
        "trace export needs a journal: fixctl trace export <trace.jsonl> --chrome out.json",
    )?;
    let out = flags.required("chrome")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let records = parse_jsonl(&text)?;
    let chrome = chrome_trace(&records);
    std::fs::write(out, chrome.to_string_pretty() + "\n")
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out} ({} trace event(s))", records.len());
    Ok(())
}

fn cmd_stats(flags: &Flags, obs_ctx: &ObsCtx) -> Result<(), String> {
    let (table, rules, _symbols) = load::<Table>(flags, obs_ctx)?;
    println!("schema: {}", table.schema());
    println!("data:   {} rows", table.len());
    println!("rules:  {} (size(Σ) = {})", rules.len(), rules.size());
    let mut by_b: HashMap<&str, usize> = HashMap::new();
    let mut neg_total = 0usize;
    let mut neg_max = 0usize;
    for (_, rule) in rules.iter() {
        *by_b.entry(table.schema().attr_name(rule.b())).or_insert(0) += 1;
        neg_total += rule.neg().len();
        neg_max = neg_max.max(rule.neg().len());
    }
    if !rules.is_empty() {
        println!(
            "negative patterns: {} total, {:.1} avg, {} max",
            neg_total,
            neg_total as f64 / rules.len() as f64,
            neg_max
        );
    }
    let mut attrs: Vec<(&str, usize)> = by_b.into_iter().collect();
    attrs.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("rules per repaired attribute:");
    for (attr, n) in attrs {
        println!("  {attr:<20} {n}");
    }
    Ok(())
}
