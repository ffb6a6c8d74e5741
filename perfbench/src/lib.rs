//! The repository benchmark: one named workload, run once in this process,
//! driven only through the library's public entry points.
//!
//! A workload builds its dialect profiles, runs its campaigns at
//! [`WORKERS`] workers, does its post-campaign work (triage in `table4`,
//! journal read-back in `scheduled`), checks every output, and prints one
//! JSON line of metrics. `run.py` runs the workload in several fresh
//! processes and takes medians; `README.md` says why (memory layout is
//! the dominant noise source, and the heap degrades when campaigns repeat
//! in one process).
//!
//! The traced binary (`perfbench-traced`) runs the same workload with the
//! flight recorder armed and a counting allocator installed, then walks
//! the public layer calls ([`layers`]) to report per-layer metrics.

mod layers;

use soft_bench::compare::compare_traces;
use soft_core::campaign::{run_soft_parallel_live, CampaignConfig, CampaignRun, LivePlane};
use soft_core::forensics::{bundle_finding, replay_bundle};
use soft_core::{BugFinding, FindingKind, OracleConfig, ScheduleConfig};
use soft_core::{TelemetryConfig, TelemetryOptions};
use soft_dialects::{DialectId, DialectProfile};
use soft_obs::{LiveMetrics, SpanSink, TraceFile};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every campaign: the benchmark host's core count. At
/// one worker the campaign's throughput depends on heap layout; at two it
/// repeats within a few percent.
const WORKERS: usize = 2;

/// Cases generated per (pattern, seed) pair — the batch default.
const PER_SEED_CAP: usize = 64;

/// Profile builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The unique findings of the default `oracles` workload (ClickHouse at
/// 60,000 statements): five of the six corpus crash faults, plus the
/// multi-form oracle's one wrong-result finding. The default `scheduled`
/// workload finds the whole ClickHouse corpus.
const ORACLES_EXPECTED: [&str; 6] = [
    "clickhouse-aggregate-npd-p1_2-0",
    "clickhouse-array-npd-p2_3-1",
    "clickhouse-date-npd-p1_2-2",
    "clickhouse-string-segv-p2_3-4",
    "clickhouse-string-segv-p3_1-5",
    "logic-multiform-tostring",
];

/// A counter of heap allocations made by the calling thread. Only the
/// traced binary has one; the end-to-end binary keeps the system allocator
/// untouched.
pub type AllocCounter = fn() -> u64;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The paper's Table 4 sweep: every dialect, static planner, then
    /// triage (bundle + replay) of every finding.
    Table4,
    /// One campaign with every oracle armed.
    Oracles,
    /// One epoch-scheduled campaign with telemetry, a journal and live
    /// metrics, then journal read-back and a self-compare.
    Scheduled,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    const ALL: [Workload; 3] = [Workload::Table4, Workload::Oracles, Workload::Scheduled];

    /// The workload's command-line name.
    fn name(self) -> &'static str {
        match self {
            Workload::Table4 => "table4",
            Workload::Oracles => "oracles",
            Workload::Scheduled => "scheduled",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn default_dialects(self) -> Vec<DialectId> {
        match self {
            Workload::Table4 => DialectId::ALL.to_vec(),
            Workload::Oracles | Workload::Scheduled => vec![DialectId::Clickhouse],
        }
    }

    fn default_budget(self) -> usize {
        match self {
            Workload::Table4 => 150_000,
            Workload::Oracles => 60_000,
            // The whole deduplicated ClickHouse plan (276,694 statements).
            Workload::Scheduled => 280_000,
        }
    }
}

/// What one run executes: a workload plus its (possibly held-out) inputs.
#[derive(Debug, Clone)]
struct Spec {
    /// The workload.
    workload: Workload,
    /// Dialects to campaign against, in order.
    dialects: Vec<DialectId>,
    /// Statement budget per campaign.
    budget: usize,
    /// Whether dialects and budget are the workload's defaults: the
    /// expected findings of `oracles` and `scheduled` apply only then.
    is_default: bool,
    /// Input seed: selects the traced layer walk's sample. Campaigns are
    /// deterministic functions of (profile, config) and take no seed.
    seed: u64,
    /// Directory for the scheduled workload's journal and the traced run's
    /// trace export.
    out_dir: PathBuf,
}

impl Spec {
    /// Parses `--workload NAME --seed N [--dialect A,B] [--budget N]
    /// [--out DIR]`.
    fn from_args(args: &[String]) -> Result<Spec, String> {
        let flag = |name: &str| -> Option<&str> {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
        };
        let workload = flag("--workload").ok_or("missing --workload")?;
        let workload = Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let seed = match flag("--seed") {
            Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
            None => 0,
        };
        let dialects = match flag("--dialect") {
            Some(list) => list
                .split(',')
                .map(|d| DialectId::from_name(d).ok_or_else(|| format!("unknown dialect {d:?}")))
                .collect::<Result<Vec<_>, _>>()?,
            None => workload.default_dialects(),
        };
        let budget = match flag("--budget") {
            Some(b) => b.parse().map_err(|_| format!("bad --budget {b:?}"))?,
            None => workload.default_budget(),
        };
        let is_default =
            dialects == workload.default_dialects() && budget == workload.default_budget();
        let out_dir = PathBuf::from(flag("--out").unwrap_or("."));
        Ok(Spec {
            workload,
            dialects,
            budget,
            is_default,
            seed,
            out_dir,
        })
    }

    fn config(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig {
            max_statements: self.budget,
            per_seed_cap: PER_SEED_CAP,
            workers: WORKERS,
            ..CampaignConfig::default()
        };
        match self.workload {
            Workload::Table4 => {}
            Workload::Oracles => cfg.oracles = OracleConfig::on(),
            Workload::Scheduled => {
                cfg.schedule = ScheduleConfig::on();
                cfg.telemetry = TelemetryConfig::On(TelemetryOptions {
                    journal_path: Some(self.journal_path()),
                    ..TelemetryOptions::default()
                });
            }
        }
        cfg
    }

    fn journal_path(&self) -> PathBuf {
        self.out_dir.join(format!(
            "journal-{}-{}.jsonl",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// One campaign call and what the benchmark observed around it.
struct CampaignCall {
    /// The profile the campaign ran against.
    profile: DialectProfile,
    /// The campaign result (report, shard timings, spans when traced).
    run: CampaignRun,
    /// When the call started, relative to the workload start.
    offset: Duration,
    /// Wall time of the call.
    wall: Duration,
    /// Process CPU time consumed during the call.
    cpu: Duration,
    /// Milliseconds from the call to its first unique finding.
    first_finding_ms: Option<u64>,
    /// Events in the live event log.
    live_events: usize,
}

/// Per-call timings of triage (bundle + replay of every finding).
#[derive(Default)]
struct Triage {
    /// `bundle_finding` wall time per finding.
    bundle: Vec<Duration>,
    /// `replay_bundle` wall time per finding.
    replay: Vec<Duration>,
    /// Bundles that failed replay.
    failures: usize,
}

/// The scheduled workload's journal read-back.
struct JournalReadback {
    /// Journal size on disk.
    bytes: usize,
    /// Statement rows in the parsed journal.
    rows: usize,
    /// Time to read and leniently parse the journal.
    read: Duration,
}

/// One operation whose output was checked.
struct Check {
    /// What was checked.
    name: String,
    /// Why it failed, when it did.
    failure: Option<String>,
}

/// Everything one workload run produced.
struct WorkloadRun {
    /// The run's inputs.
    spec: Spec,
    /// Median profile-build time (`setup_s`).
    setup: Duration,
    /// Campaign calls in order.
    calls: Vec<CampaignCall>,
    /// Triage timings (`table4`; filled by the layer walk elsewhere).
    triage: Option<Triage>,
    /// Journal read-back (`scheduled`).
    journal: Option<JournalReadback>,
    /// Wall time of the whole workload: setup, campaigns, post-campaign
    /// work.
    wall: Duration,
    /// Every checked operation.
    checks: Vec<Check>,
    /// When the workload started: the time origin of every span.
    start: Instant,
    /// The benchmark's own phase spans (setup, campaign calls, triage,
    /// journal read-back), on [`layers::BENCH_TRACK`].
    bench: SpanSink,
}

impl WorkloadRun {
    /// Statements executed over all campaign calls.
    fn statements(&self) -> usize {
        self.calls
            .iter()
            .map(|c| c.run.report.statements_executed)
            .sum()
    }

    /// Unique findings over all campaign calls.
    fn unique_bugs(&self) -> usize {
        self.calls.iter().map(|c| c.run.report.findings.len()).sum()
    }

    /// Summed wall time of the campaign calls.
    fn campaign_wall(&self) -> Duration {
        self.calls.iter().map(|c| c.wall).sum()
    }

    fn failed(&self) -> usize {
        self.checks.iter().filter(|c| c.failure.is_some()).count()
    }
}

/// Runs the workload once. `traced` arms the flight recorder on every
/// campaign.
fn run_workload(spec: Spec, traced: bool) -> WorkloadRun {
    let start = Instant::now();
    let mut bench = SpanSink::new(start, layers::BENCH_TRACK);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut profiles = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let span = bench.now_ns();
        profiles = spec
            .dialects
            .iter()
            .map(|&id| DialectProfile::build(id))
            .collect();
        setups.push(t.elapsed());
        bench.record_since("setup", span, None);
    }
    let setup = median_duration(&mut setups);
    let cfg = spec.config();

    let mut calls = Vec::with_capacity(profiles.len());
    for profile in profiles {
        let metrics = Arc::new(LiveMetrics::new());
        let live = LivePlane {
            metrics: Some(Arc::clone(&metrics)),
            watchdog: None,
            spans: traced,
        };
        let cpu0 = process_cpu();
        let span = bench.now_ns();
        let t = Instant::now();
        let run = run_soft_parallel_live(&profile, &cfg, WORKERS, &live);
        let wall = t.elapsed();
        bench.record_since("campaign-call", span, Some(profile.id.name().to_string()));
        let cpu = process_cpu().saturating_sub(cpu0);
        let (events, _) = metrics.events_since(0);
        calls.push(CampaignCall {
            offset: t.duration_since(start),
            first_finding_ms: first_finding_ms(&events),
            live_events: events.len(),
            profile,
            run,
            wall,
            cpu,
        });
    }

    let mut checks = Vec::new();
    let mut triage = None;
    let mut journal = None;
    match spec.workload {
        Workload::Table4 => {
            for call in &calls {
                checks.push(check_corpus(call));
            }
            let span = bench.now_ns();
            triage = Some(run_triage(&calls, &mut checks));
            bench.record_since("triage", span, None);
        }
        Workload::Oracles => {
            for call in &calls {
                checks.push(match spec.is_default {
                    true => check_pinned(call, &ORACLES_EXPECTED),
                    false => check_plausible(call),
                });
            }
        }
        Workload::Scheduled => {
            for call in &calls {
                checks.push(match spec.is_default {
                    true => check_corpus(call),
                    false => check_plausible(call),
                });
                let span = bench.now_ns();
                let (readback, mut journal_checks) = read_back_journal(&spec, call);
                bench.record_since("journal-read", span, None);
                checks.append(&mut journal_checks);
                journal = readback;
            }
        }
    }
    let wall = start.elapsed();
    WorkloadRun {
        spec,
        setup,
        calls,
        triage,
        journal,
        wall,
        checks,
        start,
        bench,
    }
}

/// Bundles and replays every finding of every call, timing each call.
/// Each replay is one checked operation.
fn run_triage(calls: &[CampaignCall], checks: &mut Vec<Check>) -> Triage {
    let mut triage = Triage::default();
    for call in calls {
        for finding in &call.run.report.findings {
            let t = Instant::now();
            let bundle = bundle_finding(&call.profile, finding, "findings");
            triage.bundle.push(t.elapsed());
            let t = Instant::now();
            let replayed = replay_bundle(&bundle);
            triage.replay.push(t.elapsed());
            triage.failures += usize::from(replayed.is_err());
            checks.push(Check {
                name: format!("{} replays", finding.fault_id),
                failure: replayed.err(),
            });
        }
    }
    triage
}

fn expect(name: &str, ok: bool, why: impl FnOnce() -> String) -> Check {
    Check {
        name: name.to_string(),
        failure: (!ok).then(why),
    }
}

fn finding_ids(findings: &[BugFinding]) -> BTreeSet<String> {
    findings.iter().map(|f| f.fault_id.clone()).collect()
}

/// The campaign finds exactly its dialect's crash corpus (Table 4).
fn check_corpus(call: &CampaignCall) -> Check {
    let found = finding_ids(&call.run.report.findings);
    let corpus: BTreeSet<String> = call
        .profile
        .faults
        .iter()
        .map(|f| f.spec.id.clone())
        .collect();
    expect(
        &format!("{} corpus", call.profile.id.name()),
        found == corpus,
        || {
            let missing: Vec<_> = corpus.difference(&found).collect();
            let extra: Vec<_> = found.difference(&corpus).collect();
            format!(
                "{}/{} found; missing {missing:?}, unexpected {extra:?}",
                found.len(),
                corpus.len()
            )
        },
    )
}

/// The campaign finds exactly the pinned fault ids.
fn check_pinned(call: &CampaignCall, pinned: &[&str]) -> Check {
    let found = finding_ids(&call.run.report.findings);
    let expected: BTreeSet<String> = pinned.iter().map(|s| s.to_string()).collect();
    expect(
        &format!("{} findings", call.profile.id.name()),
        found == expected,
        || format!("found {found:?}, expected {expected:?}"),
    )
}

/// Held-out inputs have no pinned set: the campaign must find something,
/// and only corpus crash faults and oracle-named wrong-result bugs.
fn check_plausible(call: &CampaignCall) -> Check {
    let corpus: BTreeSet<&str> = call
        .profile
        .faults
        .iter()
        .map(|f| f.spec.id.as_str())
        .collect();
    let findings = &call.run.report.findings;
    let stray: Vec<&str> = findings
        .iter()
        .filter(|f| match f.kind {
            FindingKind::Crash(_) => !corpus.contains(f.fault_id.as_str()),
            FindingKind::Logic(_) => !f.fault_id.starts_with("logic-"),
        })
        .map(|f| f.fault_id.as_str())
        .collect();
    expect(
        &format!("{} findings", call.profile.id.name()),
        !findings.is_empty() && stray.is_empty(),
        || format!("{} findings, not in the corpus: {stray:?}", findings.len()),
    )
}

/// Reads the journal back leniently and checks it against the campaign:
/// nothing skipped, one row per executed statement, and a self-compare
/// that loses no bug.
fn read_back_journal(spec: &Spec, call: &CampaignCall) -> (Option<JournalReadback>, Vec<Check>) {
    let path = spec.journal_path();
    let name = call.profile.id.name();
    let t = Instant::now();
    let parsed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            TraceFile::parse_lenient(&text).map(|(trace, skipped)| (text.len(), trace, skipped))
        });
    let read = t.elapsed();
    let _ = std::fs::remove_file(&path);
    let (bytes, trace, skipped) = match parsed {
        Ok(p) => p,
        Err(e) => {
            let check = expect(&format!("{name} journal"), false, || {
                format!("{}: {e}", path.display())
            });
            return (None, vec![check]);
        }
    };
    let rows = trace.journal.events.len();
    let statements = call.run.report.statements_executed;
    let lost = compare_traces(&trace, &trace).lost_bugs;
    let checks = vec![
        expect(
            &format!("{name} journal skipped lines"),
            skipped == 0,
            || format!("{skipped} malformed line(s)"),
        ),
        expect(&format!("{name} journal rows"), rows == statements, || {
            format!("{rows} rows for {statements} statements")
        }),
        expect(
            &format!("{name} journal self-compare"),
            lost.is_empty(),
            || format!("lost {lost:?}"),
        ),
    ];
    (Some(JournalReadback { bytes, rows, read }), checks)
}

/// The `ms` of the first `finding` event in a live event log.
fn first_finding_ms(events: &[Arc<str>]) -> Option<u64> {
    events.iter().find_map(|line| {
        let obj = soft_obs::json::parse_object(line).ok()?;
        (obj.get("type")?.as_str()? == "finding").then_some(())?;
        obj.get("ms")?.as_num().map(|ms| ms as u64)
    })
}

/// CPU time (user + system) the process has used so far, from
/// `/proc/self/stat` in clock ticks of 10 ms.
fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of durations (sorts in place).
fn median_duration(values: &mut [Duration]) -> Duration {
    values.sort_unstable();
    values.get(values.len() / 2).copied().unwrap_or_default()
}

/// The `q`-quantile (0..=1) of already sorted values, nearest rank.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Metrics as (name, value, unit), printed in order.
type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics of an untraced run, followed by the totals
/// `run.py` sums over the processes of one instance (`statements`,
/// `campaign_s`, `workload_s`).
fn end_to_end_metrics(w: &WorkloadRun) -> Metrics {
    let unique = w.unique_bugs() as f64;
    let first_bug_ms: u64 = w.calls.iter().filter_map(|c| c.first_finding_ms).sum();
    vec![
        (
            "stmts_per_s".into(),
            w.statements() as f64 / w.campaign_wall().as_secs_f64(),
            "1/s",
        ),
        ("bugs_per_s".into(), unique / w.wall.as_secs_f64(), "1/s"),
        ("unique_bugs".into(), unique, "count"),
        ("first_bug_s".into(), first_bug_ms as f64 / 1e3, "s"),
        ("peak_rss_mb".into(), peak_rss_mib(), "MiB"),
        ("setup_s".into(), w.setup.as_secs_f64(), "s"),
        ("statements".into(), w.statements() as f64, "count"),
        ("campaign_s".into(), w.campaign_wall().as_secs_f64(), "s"),
        ("workload_s".into(), w.wall.as_secs_f64(), "s"),
    ]
}

/// Prints the run's result line: `{"correct", "attempted", "failed",
/// "metrics"}` — the same shape `run.py` prints, so it can aggregate.
fn print_result(w: &WorkloadRun, metrics: &Metrics) {
    for check in &w.checks {
        if let Some(why) = &check.failure {
            eprintln!("perfbench: check failed: {}: {why}", check.name);
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.failed() == 0,
        w.checks.len(),
        w.failed(),
        body.join(", ")
    );
}

/// The shared `main` of both binaries. `allocs` is the traced binary's
/// allocation counter; its presence selects the traced run.
pub fn main_with(allocs: Option<AllocCounter>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::from_args(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload table4|oracles|scheduled --seed N \
                 [--dialect NAME[,NAME]] [--budget N] [--out DIR]"
            );
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&spec.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", spec.out_dir.display());
        return 2;
    }
    match allocs {
        None => {
            let w = run_workload(spec, false);
            print_result(&w, &end_to_end_metrics(&w));
        }
        Some(counter) => {
            let mut w = run_workload(spec, true);
            let metrics = layers::traced_metrics(&mut w, counter);
            print_result(&w, &metrics);
        }
    }
    0
}
