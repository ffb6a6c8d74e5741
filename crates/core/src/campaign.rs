//! The SOFT campaign runner (§7.1 step 3, "SQL Function Bug Detection").
//!
//! The runner replays a target's preparation statements, executes the
//! collected seeds, then streams pattern-generated statements into the
//! engine under a statement budget — the reproduction's deterministic
//! substitute for the paper's wall-clock budgets. Crashes are deduplicated
//! by fault id; after each crash the database is "restarted" by snapshot
//! restore ([`soft_engine::Engine::restore_database`]) from the prepared
//! template engine — state-identical to the reset-and-replay-preparation
//! loop the paper's harness performs on its DBMS containers, without
//! re-executing the preparation statements.
//!
//! # Prepared execution
//!
//! Every planned statement is parsed **exactly once**: after planning, the
//! campaign compiles the stream against the shard template
//! (`Plan::prepare` → [`soft_engine::Engine::prepare`]), and the shards
//! execute the owned ASTs via
//! [`soft_engine::Engine::execute_prepared`]. The rendered SQL string is
//! kept only for findings/PoCs and the event journal. Preparation also
//! resolves every function name to its registry entry, so per-call dispatch
//! inside the executor does zero heap allocation.
//!
//! # Parallel execution
//!
//! The paper drives seven DBMSs concurrently on a 128-core testbed (§7.1);
//! this runner exploits the same hardware through **seed sharding**. The
//! campaign first *plans* the exact statement stream a serial run would
//! execute (seeds, then the round-robin of pattern-generated cases, globally
//! deduplicated and truncated at the budget), then partitions that stream
//! into fixed-size shards. Every shard executes against a private [`Engine`]
//! cloned from a prepared template, and a deterministic merge combines the
//! shard results: findings are deduplicated by fault id in global statement
//! order, counters are summed, and coverage sets are unioned.
//!
//! Because the shard decomposition depends only on the configuration — never
//! on the worker count — [`run_soft_parallel`] produces a byte-identical
//! [`CampaignReport`] for any number of workers, and [`run_soft`] (the
//! serial reference) is simply the same plan executed inline. Parallelism
//! changes wall-clock time, nothing else.
//!
//! # The live plane
//!
//! [`run_soft_parallel_live`] additionally feeds a [`LivePlane`]: a
//! lock-free [`LiveMetrics`] registry that workers update wait-free per
//! statement (scraped by `soft_obs::http::MetricsServer` and the
//! `--progress` ticker) and an optional shard watchdog thread that polls
//! per-shard heartbeats for stalls. Both are strictly *observers* — the
//! campaign never reads them back, so the byte-identical guarantee is
//! untouched; their outputs land on [`CampaignRun`], next to the other
//! wall-clock surfaces, never inside [`CampaignReport`] equality.
//!
//! The flight recorder ([`LivePlane::spans`]) is the third observer on the
//! same plane: each shard records hierarchical wall-clock spans (shard,
//! batch-group, execute, oracle) into a buffer it owns exclusively, the
//! campaign thread records the planning stages (generate, parse, epoch,
//! minimize, campaign), and the join merges everything into a
//! [`SpanTrace`] on [`CampaignRun::spans`] — exportable as Chrome
//! trace-event JSON for Perfetto. Spans are wall-clock and therefore live
//! outside report equality, like every other surface here.

use crate::collect::{self, Collection};
use crate::oracle::{self, OracleConfig, OracleKind, OracleOptions};
use crate::patterns::{self, GenCtx, GeneratedCase};
use crate::report::{BugFinding, CampaignReport, FindingKind, ShardStats};
use crate::schedule::{ArmId, ArmReward, Bandit, ScheduleConfig, ScheduleOptions};
use soft_dialects::DialectProfile;
use soft_engine::{
    BatchArena, Coverage, Engine, ExecOutcome, FaultSpec, PatternId, Prepared, ShapeKey,
    SqlError, Stage, MIN_BATCH_GROUP,
};
use soft_obs::span::CAMPAIGN_TRACK;
use soft_obs::{
    ArmAlloc, EpochRealloc, LiveMetrics, OutcomeClass, ShardTelemetry, SpanRecord, SpanSink,
    SpanTrace, StageLatency, StatementEvent, TelemetryConfig, TelemetryOptions, WatchdogConfig,
    WatchdogReport,
};
use soft_types::category::FunctionCategory;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Statement budget (the 24-hour analogue).
    pub max_statements: usize,
    /// Cases generated per (pattern, seed) pair.
    pub per_seed_cap: usize,
    /// Restrict generation to these patterns (None = all ten) — the
    /// ablation knob.
    pub patterns: Option<Vec<PatternId>>,
    /// Worker threads for [`run_campaign`] (the parallel entry points take
    /// an explicit count). Defaults to `std::thread::available_parallelism`;
    /// `0` is treated as 1. The worker count never changes campaign results,
    /// only wall-clock time.
    pub workers: usize,
    /// Per-shard statement budget: the planned statement stream is cut into
    /// contiguous shards of this many statements, each executed on a private
    /// engine. The shard size *is* part of the campaign's semantics (shard
    /// boundaries reset session state), so two runs compare equal only under
    /// the same `shard_statements`; the worker count is not.
    pub shard_statements: usize,
    /// Observability knob (default [`TelemetryConfig::Off`], which costs one
    /// branch per statement). When on, the run records the statement-level
    /// event journal, yield metrics, coverage-growth curves (all
    /// deterministic, inside [`CampaignReport::telemetry`]) and wall-clock
    /// stage latencies (outside the report, in
    /// [`CampaignRun::stage_latency`]). The snapshot interval is part of the
    /// campaign semantics; the journal path is not (it only adds a sink).
    pub telemetry: TelemetryConfig,
    /// Wrong-result detection knob (default [`OracleConfig::Off`]). When on,
    /// the multi-form oracle checks every planned statement against its
    /// literal-unfolded form, and the pivot / differential oracles run once
    /// after the planned stream as a synthetic trailing shard. All oracle
    /// checks are pure functions of the prepared template and the statement,
    /// so the worker-count-invariance guarantee holds with oracles on.
    pub oracles: OracleConfig,
    /// Columnar batch execution (default on). When on, each shard groups
    /// same-shape prepared statements and evaluates every group as one
    /// columnar batch ([`soft_engine::Engine::execute_batch_in`]), then
    /// demultiplexes the per-row outcomes through the exact serial
    /// classification loop. Batching is a pure execution strategy: the
    /// report is byte-identical with it on or off, at any worker count —
    /// only statements/sec changes.
    pub batch: bool,
    /// Budget scheduling knob (default [`ScheduleConfig::Off`], the static
    /// round-robin planner). When on, the statement budget is split into
    /// epochs and a UCB bandit reallocates each epoch's share across
    /// (pattern × seed-category) arms from the merged telemetry of prior
    /// epochs — plan-then-execute, so the stream stays a pure function of
    /// the configuration and reports remain byte-identical at any worker
    /// count. The epoch decisions land in
    /// [`soft_obs::CampaignTelemetry::epochs`] when telemetry is on.
    pub schedule: ScheduleConfig,
    /// A persistent seed repository to consume (default `None`). When set,
    /// same-dialect PoCs join the phase-1 seed corpus (regression
    /// tripwires) and every entry's boundary literals — cross-dialect —
    /// extend the P1.1 generation pool. An unreadable repository is
    /// reported on stderr and skipped; the campaign still runs.
    pub repository: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_statements: 200_000,
            per_seed_cap: 64,
            patterns: None,
            workers: default_workers(),
            shard_statements: 256,
            telemetry: TelemetryConfig::Off,
            oracles: OracleConfig::Off,
            batch: true,
            schedule: ScheduleConfig::Off,
            repository: None,
        }
    }
}

impl CampaignConfig {
    /// The effective worker count (`workers`, floored at 1).
    pub fn resolved_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// The machine's available parallelism (1 when it cannot be queried).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The pattern application order; interleaved round-robin at execution.
/// Must list all ten patterns — the default campaign claims to apply every
/// pattern, and `PatternId::ALL`-based regression tests hold it to that.
const PATTERN_ORDER: [PatternId; 10] = [
    PatternId::P1_1,
    PatternId::P1_2,
    PatternId::P1_3,
    PatternId::P1_4,
    PatternId::P2_1,
    PatternId::P2_2,
    PatternId::P2_3,
    PatternId::P3_1,
    PatternId::P3_2,
    PatternId::P3_3,
];

/// One statement of the planned campaign stream.
#[derive(Debug, Clone)]
struct PlannedCase {
    sql: String,
    /// `None` for phase-1 seed statements.
    pattern: Option<PatternId>,
    /// Index of the seed the statement derives from (telemetry provenance).
    seed: usize,
}

/// The planned campaign: the exact statement stream plus the provenance
/// tables telemetry needs. Building it involves no engine; [`Plan::prepare`]
/// then compiles the stream against the shard template so each statement is
/// parsed exactly once and the shards execute owned ASTs.
struct Plan {
    cases: Vec<PlannedCase>,
    /// One prepared statement — or its pre-execution error, replayed as the
    /// statement's outcome — per planned case, aligned with `cases`. Filled
    /// by [`Plan::prepare`]; this is the campaign's single parse of each
    /// statement.
    prepared: Vec<Result<Prepared, SqlError>>,
    /// The structural shape of each prepared statement, aligned with
    /// `cases`: `Some(key)` when the statement is batchable (see
    /// [`soft_engine::Engine::shape_key`]), `None` when it must take the
    /// scalar path. Filled by [`Plan::prepare`] so the shards only group,
    /// never re-analyse.
    shapes: Vec<Option<ShapeKey>>,
    generated_per_pattern: Vec<(PatternId, usize)>,
    /// Root function of each seed statement (the first collected function
    /// expression), indexed by seed id — the journal's "target function"
    /// for non-crashing statements. Interned once so the per-event journal
    /// clones an `Arc`, not a `String`.
    seed_functions: Vec<Option<Arc<str>>>,
    /// Wall-clock generation time per active pattern (telemetry only).
    generate_latency: Vec<Duration>,
    /// Wall-clock prepare time per case (telemetry only, else empty) — the
    /// parse-stage histogram, now genuinely disjoint from execution.
    prepare_latency: Vec<Duration>,
}

impl Plan {
    /// Parses every not-yet-prepared planned statement once against the
    /// template engine — incremental, so the scheduler's epoch loop can
    /// extend the plan and prepare only the new tail. Serial by design: the
    /// prepared stream (like the plan itself) must be independent of the
    /// worker count, and recording per-case wall-clock here keeps the parse
    /// histogram deterministic in sample count.
    fn prepare(&mut self, template: &Engine, timed: bool) {
        let start = self.prepared.len();
        self.prepared.reserve_exact(self.cases.len() - start);
        self.shapes.reserve_exact(self.cases.len() - start);
        if timed {
            self.prepare_latency.reserve_exact(self.cases.len() - start);
        }
        for case in &self.cases[start..] {
            let t = timed.then(Instant::now);
            let prepared = template.prepare(&case.sql);
            if let Some(t) = t {
                self.prepare_latency.push(t.elapsed());
            }
            // Shape analysis is part of planning, not execution: it is a
            // pure function of (registry, AST), so computing it against the
            // template here keeps the shards' grouping deterministic and
            // out of the hot loop.
            self.shapes.push(prepared.as_ref().ok().and_then(|p| template.shape_key(p)));
            self.prepared.push(prepared);
        }
    }
}

/// Fault-id → (interned id, corpus spec), built once per campaign so the
/// per-crash ground-truth lookup is O(1) instead of a linear scan over the
/// fault corpus, and so crash telemetry reuses one interned id per fault
/// instead of cloning the `String` per event.
type FaultIndex<'p> = HashMap<&'p str, (Arc<str>, &'p FaultSpec)>;

fn build_fault_index(profile: &DialectProfile) -> FaultIndex<'_> {
    profile
        .faults
        .iter()
        .map(|f| (f.spec.id.as_str(), (Arc::from(f.spec.id.as_str()), &f.spec)))
        .collect()
}

/// Per-shard wall-clock observability (not part of the deterministic
/// report — see [`ShardStats`] for the merged, comparable counters).
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// Shard index (global statement order).
    pub shard: usize,
    /// Statements the shard executed.
    pub statements: usize,
    /// Wall-clock nanoseconds the shard took.
    pub nanos: u128,
}

impl ShardTiming {
    /// The shard's execution rate.
    pub fn statements_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return 0.0;
        }
        self.statements as f64 / (self.nanos as f64 / 1e9)
    }
}

/// A campaign result with its wall-clock telemetry: the deterministic
/// [`CampaignReport`] plus per-shard timings, which *do* vary run to run and
/// are therefore kept out of the report's `PartialEq` surface.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The deterministic campaign report (identical for any worker count).
    pub report: CampaignReport,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall-clock nanoseconds (collection + generation +
    /// execution + merge).
    pub wall_nanos: u128,
    /// Per-shard timings, in shard order.
    pub shard_timings: Vec<ShardTiming>,
    /// Per-stage wall-clock latency histograms (generate, parse, execute,
    /// minimize), recorded only when [`CampaignConfig::telemetry`] is on.
    /// Wall-clock varies run to run, so this lives here — next to
    /// [`ShardTiming`] — and never inside the comparable [`CampaignReport`].
    pub stage_latency: Option<StageLatency>,
    /// What the shard watchdog observed (stalled/slow shards), when
    /// [`LivePlane::watchdog`] was configured. Wall-clock, so it lives on
    /// the run, outside report equality.
    pub watchdog: Option<WatchdogReport>,
    /// The flight-recorder trace (hierarchical wall-clock spans, merged
    /// from the per-shard buffers), when [`LivePlane::spans`] was armed.
    /// Wall-clock, so it lives on the run, outside report equality.
    pub spans: Option<SpanTrace>,
}

/// The campaign's live observability hookup: which wall-clock observers to
/// feed while shards execute. The default plane is fully off and costs one
/// `Option` check per statement.
///
/// Everything here is write-only from the campaign's perspective: live
/// counters and heartbeats never influence planning, scheduling, or the
/// merge, so any plane configuration produces the same [`CampaignReport`].
#[derive(Debug, Clone, Default)]
pub struct LivePlane {
    /// The shared live metrics registry to feed (the same `Arc` the HTTP
    /// exposition server / progress ticker reads). `None` = no live
    /// counters.
    pub metrics: Option<Arc<LiveMetrics>>,
    /// Run a shard watchdog thread with this configuration. When set
    /// without `metrics`, a private registry is created so heartbeats still
    /// flow.
    pub watchdog: Option<WatchdogConfig>,
    /// Arm the flight recorder: every shard records wall-clock spans into
    /// a buffer it owns exclusively (no locks, no cross-thread traffic),
    /// merged at the join into [`CampaignRun::spans`].
    pub spans: bool,
}

impl CampaignRun {
    /// Overall throughput in statements per second.
    pub fn statements_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.report.statements_executed as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Everything a shard produces; merged deterministically afterwards.
struct ShardOutcome {
    stats: ShardStats,
    findings: Vec<BugFinding>,
    coverage: Coverage,
    nanos: u128,
    telemetry: Option<ShardTelemetry>,
    spans: Vec<SpanRecord>,
}

/// Runs a full SOFT campaign against one dialect profile, serially — the
/// reference semantics. Equivalent to [`run_soft_parallel`] with one worker
/// (and byte-identical to it at *any* worker count).
pub fn run_soft(profile: &DialectProfile, config: &CampaignConfig) -> CampaignReport {
    run_soft_parallel(profile, config, 1)
}

/// Runs a campaign with the worker count taken from
/// [`CampaignConfig::workers`].
pub fn run_campaign(profile: &DialectProfile, config: &CampaignConfig) -> CampaignReport {
    run_soft_parallel(profile, config, config.resolved_workers())
}

/// Runs a campaign with `n_workers` threads. The report is byte-identical
/// for every worker count — parallelism must not change results, only
/// wall-clock.
pub fn run_soft_parallel(
    profile: &DialectProfile,
    config: &CampaignConfig,
    n_workers: usize,
) -> CampaignReport {
    run_soft_parallel_timed(profile, config, n_workers).report
}

/// [`run_soft_parallel`] plus wall-clock telemetry (per-shard statements/sec
/// for the bench JSON and observability surfaces). Runs with the live plane
/// fully off.
pub fn run_soft_parallel_timed(
    profile: &DialectProfile,
    config: &CampaignConfig,
    n_workers: usize,
) -> CampaignRun {
    run_soft_parallel_live(profile, config, n_workers, &LivePlane::default())
}

/// [`run_soft_parallel_timed`] with the live observability plane attached:
/// workers feed `live.metrics` wait-free per statement, and `live.watchdog`
/// (when set) runs a heartbeat-polling thread whose report lands on
/// [`CampaignRun::watchdog`]. The live plane never changes the report.
pub fn run_soft_parallel_live(
    profile: &DialectProfile,
    config: &CampaignConfig,
    n_workers: usize,
    live: &LivePlane,
) -> CampaignRun {
    let t0 = Instant::now();
    let workers = n_workers.max(1);
    let telemetry_opts = config.telemetry.options();
    let oracle_opts = config.oracles.options();
    let mut collection = collect::collect(profile);

    // The persistent repository (when configured): same-dialect PoCs join
    // the phase-1 seed corpus as regression tripwires, and every entry's
    // boundary literals — whatever dialect surfaced them — widen the
    // generation pool. Both extensions happen before planning, so the
    // stream stays a pure function of (profile, config, repository).
    let repo = config.repository.as_ref().and_then(|root| {
        match crate::repo::SeedRepository::load(root) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("soft-core: ignoring repository {}: {e}", root.display());
                None
            }
        }
    });
    if let Some(repo) = &repo {
        repo.extend_seeds(profile.id.name(), &mut collection);
    }
    let mut ctx = GenCtx::new(&collection);
    if let Some(repo) = &repo {
        repo.extend_pool(&mut ctx);
    }
    let prep: Vec<String> = collection.preparation.iter().map(|s| s.to_string()).collect();

    let fault_index = build_fault_index(profile);

    // The shard template: a fresh engine with preparation replayed. Cloning
    // it (or restoring from it after a crash) is exactly the state the
    // serial runner used to re-create by replaying preparation.
    let mut template = profile.engine();
    for sql in &prep {
        let _ = template.execute(sql);
    }

    // Resolve the live registry: the caller's, or a private one when only
    // the watchdog is configured (heartbeats still need somewhere to live).
    let metrics: Option<Arc<LiveMetrics>> = live
        .metrics
        .clone()
        .or_else(|| live.watchdog.map(|_| Arc::new(LiveMetrics::new())));
    let live_metrics: Option<&LiveMetrics> = metrics.as_deref();

    // One scope hosts the watchdog and (via `execute_shards`) the shard
    // workers. The shard work finishes first; only then is the stop flag
    // raised and the watchdog joined — so the watchdog observes the whole
    // campaign and the scope cannot deadlock on it.
    // The flight recorder: the campaign thread owns track 0 (planning
    // stages), each shard records onto track `shard + 1` inside its own
    // outcome buffer. All sinks share `t0` as the time origin.
    let mut campaign_sink: Option<SpanSink> =
        live.spans.then(|| SpanSink::new(t0, CAMPAIGN_TRACK));
    let span_origin: Option<Instant> = live.spans.then_some(t0);
    let campaign_sink_ref = &mut campaign_sink;

    let stop = AtomicBool::new(false);
    let stop_ref = &stop;
    let (plan, mut outcomes, epochs, watchdog_report) = std::thread::scope(|scope| {
        let watchdog_handle = live.watchdog.map(|cfg| {
            let registry = Arc::clone(metrics.as_ref().expect("watchdog implies a registry"));
            scope.spawn(move || soft_obs::watchdog::run(&registry, stop_ref, cfg))
        });
        let (plan, outcomes, epochs) = match config.schedule.options() {
            // The static planner: one plan, one prepare pass, one shard
            // decomposition — the reference semantics.
            None => {
                let gen_start = campaign_sink_ref.as_ref().map(|s| s.now_ns());
                let mut plan = build_plan(&collection, &ctx, config, workers);
                if let (Some(sink), Some(start)) = (campaign_sink_ref.as_mut(), gen_start) {
                    sink.record_since(
                        "generate",
                        start,
                        Some(format!("{} cases", plan.cases.len())),
                    );
                }
                // Parse-once: compile the planned stream against the
                // template. From here on the shards only execute ASTs.
                let parse_start = campaign_sink_ref.as_ref().map(|s| s.now_ns());
                plan.prepare(&template, telemetry_opts.is_some());
                if let (Some(sink), Some(start)) = (campaign_sink_ref.as_mut(), parse_start) {
                    sink.record_since("parse", start, None);
                }
                let shard_size = config.shard_statements.max(1);
                let shards: Vec<(usize, usize, usize)> = (0..plan.cases.len())
                    .step_by(shard_size)
                    .enumerate()
                    .map(|(i, start)| (i, start, shard_size.min(plan.cases.len() - start)))
                    .collect();
                if let Some(m) = live_metrics {
                    m.begin_campaign(profile.id.name(), plan.cases.len(), shards.len(), workers);
                }
                let outcomes = execute_shards(
                    profile,
                    &fault_index,
                    &template,
                    &plan,
                    &shards,
                    workers,
                    telemetry_opts,
                    oracle_opts,
                    live_metrics,
                    config.batch,
                    span_origin,
                );
                (plan, outcomes, Vec::new())
            }
            // The feedback scheduler: plan-then-execute per epoch, budget
            // reallocated from the deterministic telemetry of prior epochs.
            Some(sched) => run_scheduled(
                profile,
                &collection,
                &ctx,
                config,
                sched,
                workers,
                &fault_index,
                &template,
                telemetry_opts,
                oracle_opts,
                live_metrics,
                span_origin,
                campaign_sink_ref,
            ),
        };
        stop.store(true, Ordering::Release);
        let wd = watchdog_handle.map(|h| h.join().expect("watchdog thread panicked"));
        (plan, outcomes, epochs, wd)
    });
    // Completion order is scheduler-dependent; merge order is not.
    outcomes.sort_by_key(|o| o.stats.shard);

    // Deterministic merge: findings deduplicated by fault id in global
    // statement order, counters summed, coverage unioned.
    let mut findings: Vec<BugFinding> = Vec::new();
    let mut found: HashSet<String> = HashSet::new();
    let mut coverage = Coverage::new();
    let mut stats: Vec<ShardStats> = Vec::with_capacity(outcomes.len());
    let mut timings: Vec<ShardTiming> = Vec::with_capacity(outcomes.len());
    let mut shard_telemetry: Vec<ShardTelemetry> = Vec::new();
    let mut span_buffers: Vec<Vec<SpanRecord>> = Vec::new();
    let mut statements = 0usize;
    let mut false_positives = 0usize;
    let mut errors = 0usize;
    for outcome in &mut outcomes {
        for f in outcome.findings.drain(..) {
            if found.insert(f.fault_id.clone()) {
                findings.push(f);
            }
        }
        if !outcome.spans.is_empty() {
            span_buffers.push(std::mem::take(&mut outcome.spans));
        }
        coverage.merge(&outcome.coverage);
        statements += outcome.stats.statements;
        false_positives += outcome.stats.false_positives;
        errors += outcome.stats.errors;
        timings.push(ShardTiming {
            shard: outcome.stats.shard,
            statements: outcome.stats.statements,
            nanos: outcome.nanos,
        });
        stats.push(outcome.stats.clone());
        if let Some(t) = outcome.telemetry.take() {
            // The scheduler runs an internal observer even when user
            // telemetry is off (it needs the events to score arms); those
            // recordings are dropped here so scheduling leaves a
            // telemetry-off report untouched.
            if telemetry_opts.is_some() {
                shard_telemetry.push(t);
            }
        }
    }

    // The synthetic trailing shard index for campaign-level oracle events:
    // one past the last executed shard, whatever decomposition (static or
    // epoch-scheduled) produced the stream.
    let total_shards = stats.last().map(|s| s.shard + 1).unwrap_or(0);

    // Campaign-level oracles: the pivot probes and the cross-dialect
    // differential suite run once, after the planned stream, and their
    // events land in the synthetic trailing shard so the journal stays
    // globally ordered. Everything here is a pure function of (profile,
    // template), so the report stays byte-identical across worker counts.
    if let Some(opts) = oracle_opts {
        let oracle_start = campaign_sink.as_ref().map(|s| s.now_ns());
        let mut hits: Vec<(String, oracle::LogicBug, String)> = Vec::new();
        if opts.pivot {
            hits.extend(oracle::pivot_check(&template));
        }
        if opts.differential {
            hits.extend(oracle::differential_check(profile));
        }
        if let (Some(sink), Some(start)) = (campaign_sink.as_mut(), oracle_start) {
            sink.record_since("oracle", start, Some("pivot + differential".into()));
        }
        let mut oracle_events: Vec<StatementEvent> = Vec::new();
        for (k, (fault_id, bug, poc)) in hits.into_iter().enumerate() {
            let index = statements + k + 1;
            if telemetry_opts.is_some() {
                oracle_events.push(StatementEvent {
                    index,
                    shard: total_shards,
                    seed: None,
                    pattern: None,
                    function: None,
                    outcome: OutcomeClass::LogicBug,
                    fault_id: Some(Arc::from(fault_id.as_str())),
                });
            }
            if found.insert(fault_id.clone()) {
                if let Some(m) = live_metrics {
                    m.record_unique_candidate(&fault_id);
                }
                findings.push(BugFinding {
                    fault_id,
                    dialect: profile.id,
                    kind: FindingKind::Logic(bug),
                    stage: Stage::Execution,
                    category: soft_types::category::FunctionCategory::System,
                    credited_pattern: PatternId::P1_2,
                    found_by_pattern: PatternId::P1_2,
                    function: None,
                    seed_function: None,
                    poc,
                    statements_until_found: index,
                    fixed: false,
                });
            }
        }
        if !oracle_events.is_empty() {
            shard_telemetry.push(ShardTelemetry {
                shard: total_shards,
                events: oracle_events,
                snapshots: Vec::new(),
                final_coverage: Coverage::new(),
                latency: StageLatency::new(),
            });
        }
    }

    // Telemetry merge: deterministic (journal, yields, curves) into the
    // report; wall-clock (stage latencies) into the run.
    let (telemetry, stage_latency) = match telemetry_opts {
        None => (None, None),
        Some(opts) => {
            let registry = template.registry();
            let (mut merged, mut latency) = soft_obs::telemetry::merge_shards(
                shard_telemetry,
                &plan.generated_per_pattern,
                opts.snapshot_interval.max(1),
                |name| registry.resolve(name).map(|d| d.category),
            );
            // Stamp the scheduler's epoch decisions into the deterministic
            // surface: they are identical at any worker count, so they sit
            // inside report equality like everything else merged here.
            merged.epochs = epochs;
            for d in &plan.generate_latency {
                latency.generate.record(*d);
            }
            // The parse stage is the campaign's central prepare pass: one
            // sample per planned statement, disjoint from execution.
            for d in &plan.prepare_latency {
                latency.parse.record(*d);
            }
            // Time the minimize stage over the unique findings (the PoCs the
            // paper's harness would report). The reducer only reads cloned
            // engines, so the report is untouched. Crash PoCs reduce under
            // the crash signature, multi-form PoCs under the oracle verdict;
            // pivot/differential PoCs are fixed probe queries — already
            // minimal, but still one sample each so the histogram keeps one
            // entry per finding.
            for f in &findings {
                let t = Instant::now();
                let min_start = campaign_sink.as_ref().map(|s| s.now_ns());
                match &f.kind {
                    FindingKind::Crash(_) => {
                        let _ = crate::minimize::minimize(&f.poc, || template.clone());
                    }
                    FindingKind::Logic(b) if b.oracle == OracleKind::MultiForm => {
                        let _ = crate::minimize::minimize_logic(&f.poc, || template.clone());
                    }
                    FindingKind::Logic(_) => {}
                }
                latency.minimize.record(t.elapsed());
                if let (Some(sink), Some(start)) = (campaign_sink.as_mut(), min_start) {
                    sink.record_since("minimize", start, Some(f.fault_id.clone()));
                }
            }
            if let Some(path) = &opts.journal_path {
                let trace = merged.to_trace(Some(profile.id.name()), statements);
                if let Err(e) = std::fs::write(path, trace.to_jsonl()) {
                    eprintln!("soft-obs: could not write journal {}: {e}", path.display());
                }
            }
            (Some(merged), Some(latency))
        }
    };

    let report = CampaignReport {
        dialect: profile.id,
        statements_executed: statements,
        findings,
        false_positives,
        errors,
        functions_triggered: coverage.functions_triggered(),
        branches_covered: coverage.branches_covered(),
        generated_per_pattern: plan.generated_per_pattern,
        shards: stats,
        telemetry,
    };
    // The slow-shard skew signal comes from the deterministic join's own
    // timing rows, not from heartbeat sampling.
    let watchdog = watchdog_report.map(|mut w| {
        let rows: Vec<(usize, usize, u128)> =
            timings.iter().map(|t| (t.shard, t.statements, t.nanos)).collect();
        w.slow_shards = soft_obs::watchdog::classify_slow_shards(&rows);
        w
    });
    // Close the root span and merge all buffers into the flight trace.
    let spans = campaign_sink.map(|mut sink| {
        let end = sink.now_ns();
        sink.record("campaign", 0, end, Some(format!("{statements} statements")));
        span_buffers.push(sink.into_spans());
        SpanTrace::merge(span_buffers)
    });
    // Terminate the live event stream: `/events` consumers see a final
    // `done` record and the chunked response closes.
    if let Some(m) = live_metrics {
        m.finish_campaign();
    }
    CampaignRun {
        report,
        workers,
        wall_nanos: t0.elapsed().as_nanos(),
        shard_timings: timings,
        stage_latency,
        watchdog,
        spans,
    }
}

/// Executes a set of planned shards — `(shard index, start, len)` triples —
/// with up to `workers` threads, returning the outcomes sorted by shard
/// index. Shard indices are caller-assigned so the scheduler's epoch loop
/// can keep one global shard numbering across epochs; the static path
/// numbers them `0..n` in a single call. Work-stealing completion order
/// never leaks: outcomes are sorted before returning.
fn execute_shards(
    profile: &DialectProfile,
    fault_index: &FaultIndex<'_>,
    template: &Engine,
    plan: &Plan,
    shards: &[(usize, usize, usize)],
    workers: usize,
    telemetry: Option<&TelemetryOptions>,
    oracles: Option<&OracleOptions>,
    live: Option<&LiveMetrics>,
    batch: bool,
    span_origin: Option<Instant>,
) -> Vec<ShardOutcome> {
    if workers == 1 || shards.len() <= 1 {
        return shards
            .iter()
            .map(|&(index, start, len)| {
                run_shard(
                    profile,
                    fault_index,
                    template,
                    plan,
                    start..start + len,
                    index,
                    telemetry,
                    oracles,
                    live,
                    batch,
                    span_origin,
                )
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<ShardOutcome>> = Mutex::new(Vec::with_capacity(shards.len()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(shards.len()))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(index, start, len)) = shards.get(i) else { break };
                    let outcome = run_shard(
                        profile,
                        fault_index,
                        template,
                        plan,
                        start..start + len,
                        index,
                        telemetry,
                        oracles,
                        live,
                        batch,
                        span_origin,
                    );
                    done.lock().expect("shard results poisoned").push(outcome);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shard worker panicked");
        }
    });
    let mut outcomes = done.into_inner().expect("shard results poisoned");
    outcomes.sort_by_key(|o| o.stats.shard);
    outcomes
}

/// Root function of each seed statement (the first collected function
/// expression), interned once — the journal's "target function" for
/// non-crashing statements and the scheduler's arm attribution.
fn seed_functions_of(collection: &Collection) -> Vec<Option<Arc<str>>> {
    collection
        .seeds
        .iter()
        .map(|s| {
            soft_parser::visit::collect_function_exprs(s).first().map(|f| Arc::from(f.name.as_str()))
        })
        .collect()
}

/// The feedback scheduler (plan-then-execute). The statement budget is
/// split into `sched.epochs` epochs; each epoch is *planned* from per-arm
/// quotas the bandit computed out of the merged, deterministic telemetry of
/// the epochs before it, prepared incrementally, and executed on shards
/// that continue the campaign's global numbering. An arm is a
/// (pattern × seed-function-category) pair.
///
/// Every scheduling input is event-derived and therefore a pure function of
/// (profile, config, repository): identical at any worker count, with batch
/// execution on or off, and whether or not user telemetry is enabled (when
/// it is not, an internal observer records events for scoring and the merge
/// discards them). The adaptive stream — and with it the report — stays
/// byte-identical however the campaign is parallelised.
fn run_scheduled(
    profile: &DialectProfile,
    collection: &Collection,
    ctx: &GenCtx,
    config: &CampaignConfig,
    sched: &ScheduleOptions,
    workers: usize,
    fault_index: &FaultIndex<'_>,
    template: &Engine,
    telemetry: Option<&TelemetryOptions>,
    oracles: Option<&OracleOptions>,
    live: Option<&LiveMetrics>,
    span_origin: Option<Instant>,
    campaign_sink: &mut Option<SpanSink>,
) -> (Plan, Vec<ShardOutcome>, Vec<EpochRealloc>) {
    let gen_start = campaign_sink.as_ref().map(|s| s.now_ns());
    let seed_functions = seed_functions_of(collection);
    // Arm attribution: the category of each seed's root function (the
    // registry's view), `System` when the seed has no resolvable function.
    let seed_categories: Vec<FunctionCategory> = seed_functions
        .iter()
        .map(|f| {
            f.as_deref()
                .and_then(|name| profile.registry.resolve(name).map(|d| d.category))
                .unwrap_or(FunctionCategory::System)
        })
        .collect();

    let active: Vec<PatternId> = match &config.patterns {
        None => PATTERN_ORDER.to_vec(),
        Some(ps) => PATTERN_ORDER.iter().copied().filter(|p| ps.contains(p)).collect(),
    };
    let (per_pattern, generate_latency) =
        generate_cases(collection, ctx, config, &active, workers);
    let generated_per_pattern: Vec<(PatternId, usize)> =
        active.iter().zip(&per_pattern).map(|(&p, cases)| (p, cases.len())).collect();
    if let (Some(sink), Some(start)) = (campaign_sink.as_mut(), gen_start) {
        let total: usize = generated_per_pattern.iter().map(|&(_, n)| n).sum();
        sink.record_since("generate", start, Some(format!("{total} cases")));
    }

    // Partition the generated cases into arm queues, keyed (pattern
    // position, category) so the arm order refines the static planner's
    // pattern order. Within a queue, cases keep their generation order.
    let mut by_arm: BTreeMap<(usize, FunctionCategory), Vec<(GeneratedCase, usize)>> =
        BTreeMap::new();
    for (pi, cases) in per_pattern.into_iter().enumerate() {
        for (case, seed) in cases {
            let category =
                seed_categories.get(seed).copied().unwrap_or(FunctionCategory::System);
            by_arm.entry((pi, category)).or_default().push((case, seed));
        }
    }
    let arms: Vec<ArmId> = by_arm
        .keys()
        .map(|&(pi, category)| ArmId { pattern: active[pi], category })
        .collect();
    let queues: Vec<Vec<(GeneratedCase, usize)>> = by_arm.into_values().collect();
    let arm_of: HashMap<(PatternId, FunctionCategory), usize> = arms
        .iter()
        .enumerate()
        .map(|(a, arm)| ((arm.pattern, arm.category), a))
        .collect();

    let budget = config.max_statements;
    let mut plan = Plan {
        cases: Vec::new(),
        prepared: Vec::new(),
        shapes: Vec::new(),
        generated_per_pattern,
        seed_functions,
        generate_latency,
        prepare_latency: Vec::new(),
    };
    let mut executed: HashSet<String> = HashSet::new();

    // Phase 1: the seed corpus opens epoch 0, exactly like the static
    // planner — seeds prime coverage and are not subject to arm quotas.
    for (si, stmt) in collection.seeds.iter().enumerate() {
        if plan.cases.len() >= budget {
            break;
        }
        let sql = stmt.to_string();
        if executed.insert(sql.clone()) {
            plan.cases.push(PlannedCase { sql, pattern: None, seed: si });
        }
    }

    let n_epochs = sched.epochs.max(1);
    let shard_size = config.shard_statements.max(1);
    if let Some(m) = live {
        // Heartbeat slots need an upper bound before execution: each epoch
        // adds at most one partial shard beyond `len / shard_size`.
        m.begin_campaign(
            profile.id.name(),
            budget,
            budget / shard_size + n_epochs + 1,
            workers,
        );
    }

    // When user telemetry is off, the scheduler still needs per-statement
    // events to score arms — an internal observer with an unreachable
    // snapshot interval and no journal records them, and the merge drops
    // them from the report.
    let internal =
        TelemetryOptions { snapshot_interval: usize::MAX / 2, journal_path: None };
    let effective: &TelemetryOptions = telemetry.unwrap_or(&internal);

    let mut bandit = Bandit::new(arms.len(), sched.clone());
    let mut cursors = vec![0usize; queues.len()];
    let mut outcomes: Vec<ShardOutcome> = Vec::new();
    let mut epochs_out: Vec<EpochRealloc> = Vec::new();
    let mut shard_base = 0usize;
    // The executed frontier: everything planned before it has run. Epoch
    // 0's execution range starts at 0 — it carries the seed corpus in
    // front of its own quota.
    let mut exec_from = 0usize;
    let mut seen_faults: HashSet<Arc<str>> = HashSet::new();
    let mut seen_functions: HashSet<Arc<str>> = HashSet::new();

    for epoch in 0..n_epochs {
        let epoch_span_start = campaign_sink.as_ref().map(|s| s.now_ns());
        // Epoch k owns the budget slice up to `budget * (k+1) / n`; planning
        // shortfalls (deduplication, dry queues) roll into the next epoch.
        let target = budget * (epoch + 1) / n_epochs;
        let epoch_start = plan.cases.len();
        let epoch_budget = target.saturating_sub(epoch_start);
        let available: Vec<usize> =
            cursors.iter().zip(&queues).map(|(&c, q)| q.len() - c).collect();
        if available.iter().all(|&n| n == 0) {
            break;
        }
        if epoch_budget == 0 {
            continue;
        }

        let scores = bandit.scores_milli();
        let quotas = bandit.allocate(epoch_budget, &available);
        // Plan the epoch: round-robin across arms up to each arm's quota
        // (duplicates advance the cursor without consuming quota, the static
        // planner's rule), then a spill pass tops the epoch up from any arm
        // with cases left so a starved quota cannot shrink the campaign.
        let mut planned = vec![0usize; arms.len()];
        plan_round_robin(
            &mut plan.cases,
            &mut executed,
            &queues,
            &mut cursors,
            &mut planned,
            &quotas,
            target,
        );
        if plan.cases.len() < target {
            let spill = vec![usize::MAX; arms.len()];
            plan_round_robin(
                &mut plan.cases,
                &mut executed,
                &queues,
                &mut cursors,
                &mut planned,
                &spill,
                target,
            );
        }

        // Prepare only the epoch's tail (the plan's parse-once discipline is
        // incremental), then execute everything planned but not yet run —
        // the epoch's quota, plus the seed corpus in epoch 0 — on shards
        // continuing the global numbering.
        let parse_start = campaign_sink.as_ref().map(|s| s.now_ns());
        plan.prepare(template, telemetry.is_some());
        if let (Some(sink), Some(start)) = (campaign_sink.as_mut(), parse_start) {
            sink.record_since("parse", start, None);
        }
        let epoch_shards: Vec<(usize, usize, usize)> = (exec_from..plan.cases.len())
            .step_by(shard_size)
            .enumerate()
            .map(|(i, start)| {
                (shard_base + i, start, shard_size.min(plan.cases.len() - start))
            })
            .collect();
        shard_base += epoch_shards.len();
        exec_from = plan.cases.len();
        let epoch_outcomes = execute_shards(
            profile,
            fault_index,
            template,
            &plan,
            &epoch_shards,
            workers,
            Some(effective),
            oracles,
            live,
            config.batch,
            span_origin,
        );

        // Score the epoch from its merged events and let the bandit observe
        // before the next epoch is planned.
        let rewards = fold_rewards(
            &epoch_outcomes,
            &arm_of,
            &seed_categories,
            arms.len(),
            &mut seen_faults,
            &mut seen_functions,
        );
        bandit.observe(&rewards);

        let start_statement = outcomes
            .last()
            .map(|o| o.stats.start_offset + o.stats.statements + 1)
            .unwrap_or(1);
        if let Some(m) = live {
            m.record_epoch(epoch, start_statement, epoch_budget);
        }
        if let (Some(sink), Some(start)) = (campaign_sink.as_mut(), epoch_span_start) {
            sink.record_since(
                "epoch",
                start,
                Some(format!("epoch {epoch}: budget {epoch_budget}")),
            );
        }
        epochs_out.push(EpochRealloc {
            epoch,
            start_statement,
            budget: epoch_budget,
            allocations: arms
                .iter()
                .enumerate()
                .map(|(a, arm)| ArmAlloc {
                    pattern: arm.pattern,
                    category: arm.category,
                    planned: quotas[a],
                    executed: planned[a],
                    score_milli: scores[a],
                })
                .collect(),
        });
        outcomes.extend(epoch_outcomes);
        if plan.cases.len() >= budget {
            break;
        }
    }
    // Flush anything planned but never executed — possible when the budget
    // is smaller than the seed corpus or every queue went dry before an
    // epoch got to run.
    if exec_from < plan.cases.len() {
        let parse_start = campaign_sink.as_ref().map(|s| s.now_ns());
        plan.prepare(template, telemetry.is_some());
        if let (Some(sink), Some(start)) = (campaign_sink.as_mut(), parse_start) {
            sink.record_since("parse", start, None);
        }
        let tail: Vec<(usize, usize, usize)> = (exec_from..plan.cases.len())
            .step_by(shard_size)
            .enumerate()
            .map(|(i, start)| {
                (shard_base + i, start, shard_size.min(plan.cases.len() - start))
            })
            .collect();
        outcomes.extend(execute_shards(
            profile,
            fault_index,
            template,
            &plan,
            &tail,
            workers,
            Some(effective),
            oracles,
            live,
            config.batch,
            span_origin,
        ));
    }
    (plan, outcomes, epochs_out)
}

/// One planning pass of the scheduler: round-robin across arm queues,
/// pushing each arm's next not-yet-planned case until the arm reaches its
/// quota, every queue is dry, or the plan reaches `target`. Duplicates
/// advance the cursor without consuming quota — the same rule the static
/// planner applies — so a quota buys `quota` *distinct* statements when the
/// queue has them. Pure: no engine, no clock, no worker count.
fn plan_round_robin(
    cases: &mut Vec<PlannedCase>,
    executed: &mut HashSet<String>,
    queues: &[Vec<(GeneratedCase, usize)>],
    cursors: &mut [usize],
    planned: &mut [usize],
    quotas: &[usize],
    target: usize,
) {
    'outer: loop {
        let mut progressed = false;
        for a in 0..queues.len() {
            if cases.len() >= target {
                break 'outer;
            }
            if planned[a] >= quotas[a] {
                continue;
            }
            while cursors[a] < queues[a].len() {
                let (case, seed) = &queues[a][cursors[a]];
                cursors[a] += 1;
                if executed.insert(case.sql.clone()) {
                    cases.push(PlannedCase {
                        sql: case.sql.clone(),
                        pattern: Some(case.pattern),
                        seed: *seed,
                    });
                    planned[a] += 1;
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
}

/// Folds one epoch's shard telemetry into per-arm rewards. Events are
/// walked in global statement order (shards sorted, indices monotonic), so
/// "first sighting" credit for faults and target functions is deterministic;
/// seed replays and oracle events carry no pattern and update the seen-sets
/// without crediting an arm.
fn fold_rewards(
    outcomes: &[ShardOutcome],
    arm_of: &HashMap<(PatternId, FunctionCategory), usize>,
    seed_categories: &[FunctionCategory],
    n_arms: usize,
    seen_faults: &mut HashSet<Arc<str>>,
    seen_functions: &mut HashSet<Arc<str>>,
) -> Vec<ArmReward> {
    let mut rewards = vec![ArmReward::default(); n_arms];
    let mut events: Vec<&StatementEvent> = outcomes
        .iter()
        .filter_map(|o| o.telemetry.as_ref())
        .flat_map(|t| t.events.iter())
        .collect();
    events.sort_by_key(|e| e.index);
    for e in events {
        let new_fault =
            e.fault_id.as_ref().is_some_and(|id| seen_faults.insert(Arc::clone(id)));
        let new_function =
            e.function.as_ref().is_some_and(|f| seen_functions.insert(Arc::clone(f)));
        let Some(&a) = e.pattern.and_then(|p| {
            let category = e
                .seed
                .and_then(|s| seed_categories.get(s).copied())
                .unwrap_or(FunctionCategory::System);
            arm_of.get(&(p, category))
        }) else {
            continue;
        };
        let r = &mut rewards[a];
        r.executed += 1;
        match e.outcome {
            OutcomeClass::Crash => r.crashes += 1,
            OutcomeClass::LogicBug => r.logic_bugs += 1,
            OutcomeClass::Error => r.errors += 1,
            OutcomeClass::Ok | OutcomeClass::ResourceLimit => {}
        }
        if new_fault {
            r.unique_bugs += 1;
        }
        if new_function {
            r.new_functions += 1;
        }
    }
    rewards
}

/// Plans the exact statement stream the campaign executes: phase-1 seeds,
/// then the round-robin over per-pattern generated cases, globally
/// deduplicated and truncated at the budget. Pure — no engine involved — so
/// the stream is identical however it is later sharded or scheduled.
fn build_plan(
    collection: &Collection,
    ctx: &GenCtx,
    config: &CampaignConfig,
    workers: usize,
) -> Plan {
    let mut plan: Vec<PlannedCase> = Vec::new();
    let mut executed: HashSet<String> = HashSet::new();

    // Seed provenance for the event journal: the root (first collected)
    // function expression of each seed statement, interned once.
    let seed_functions = seed_functions_of(collection);

    // Phase 1: the seeds themselves (they should be crash-free, but they
    // count toward the budget and they prime coverage).
    for (si, stmt) in collection.seeds.iter().enumerate() {
        if plan.len() >= config.max_statements {
            break;
        }
        let sql = stmt.to_string();
        if executed.insert(sql.clone()) {
            plan.push(PlannedCase { sql, pattern: None, seed: si });
        }
    }

    // Phase 2: pattern-based generation, interleaved round-robin across
    // patterns so every pattern gets budget share.
    let active: Vec<PatternId> = match &config.patterns {
        None => PATTERN_ORDER.to_vec(),
        Some(ps) => PATTERN_ORDER.iter().copied().filter(|p| ps.contains(p)).collect(),
    };
    let (per_pattern, generate_latency) =
        generate_cases(collection, ctx, config, &active, workers);
    let generated_per_pattern: Vec<(PatternId, usize)> =
        active.iter().zip(&per_pattern).map(|(&p, cases)| (p, cases.len())).collect();

    let mut cursors = vec![0usize; per_pattern.len()];
    'outer: loop {
        let mut progressed = false;
        for (pi, cases) in per_pattern.iter().enumerate() {
            if plan.len() >= config.max_statements {
                break 'outer;
            }
            while cursors[pi] < cases.len() {
                let (case, seed) = &cases[cursors[pi]];
                cursors[pi] += 1;
                if executed.insert(case.sql.clone()) {
                    plan.push(PlannedCase {
                        sql: case.sql.clone(),
                        pattern: Some(case.pattern),
                        seed: *seed,
                    });
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    Plan {
        cases: plan,
        prepared: Vec::new(),
        shapes: Vec::new(),
        generated_per_pattern,
        seed_functions,
        generate_latency,
        prepare_latency: Vec::new(),
    }
}

/// Executes one prepared plan entry: the prepared AST when preparation
/// succeeded, else its pre-execution error replayed as the outcome — the
/// exact classification the string path produced for the same statement.
fn execute_planned(engine: &mut Engine, prepared: &Result<Prepared, SqlError>) -> ExecOutcome {
    match prepared {
        Ok(p) => engine.execute_prepared(p),
        Err(e) => ExecOutcome::Error(e.clone()),
    }
}

/// Generates every pattern's case vector, each case tagged with the seed it
/// derives from. Each pattern is independent, so the vectors can be produced
/// on worker threads; the output is positionally identical to the serial
/// loop for any worker count. The per-pattern wall-clock durations feed the
/// telemetry generate-stage histogram and never influence the plan.
fn generate_cases(
    collection: &Collection,
    ctx: &GenCtx,
    config: &CampaignConfig,
    active: &[PatternId],
    workers: usize,
) -> (Vec<Vec<(GeneratedCase, usize)>>, Vec<Duration>) {
    let generate_one = |pattern: PatternId| -> (Vec<(GeneratedCase, usize)>, Duration) {
        let t0 = Instant::now();
        // The cross-function patterns need wider per-seed budgets: their
        // search space is (seed × donor), not (seed × pool).
        let cap = match pattern {
            PatternId::P3_3 => config.per_seed_cap.max(640),
            PatternId::P2_3 => config.per_seed_cap.max(128),
            _ => config.per_seed_cap,
        };
        let mut tagged: Vec<(GeneratedCase, usize)> = Vec::new();
        let mut buf: Vec<GeneratedCase> = Vec::new();
        for (si, seed) in collection.seeds.iter().enumerate() {
            patterns::apply_salted(pattern, seed, ctx, cap, si, &mut buf);
            tagged.extend(buf.drain(..).map(|case| (case, si)));
        }
        (tagged, t0.elapsed())
    };
    if workers <= 1 || active.len() <= 1 {
        let mut cases = Vec::with_capacity(active.len());
        let mut durations = Vec::with_capacity(active.len());
        for &p in active {
            let (c, d) = generate_one(p);
            cases.push(c);
            durations.push(d);
        }
        return (cases, durations);
    }
    let next = AtomicUsize::new(0);
    type Generated = (usize, Vec<(GeneratedCase, usize)>, Duration);
    let done: Mutex<Vec<Generated>> = Mutex::new(Vec::with_capacity(active.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers.min(active.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&pattern) = active.get(i) else { break };
                let (cases, duration) = generate_one(pattern);
                done.lock().expect("generation results poisoned").push((i, cases, duration));
            });
        }
    });
    let mut v = done.into_inner().expect("generation results poisoned");
    v.sort_by_key(|&(i, _, _)| i);
    let mut cases = Vec::with_capacity(v.len());
    let mut durations = Vec::with_capacity(v.len());
    for (_, c, d) in v {
        cases.push(c);
        durations.push(d);
    }
    (cases, durations)
}

/// The per-shard telemetry recorder: event buffer, coverage snapshots, and
/// the execute latency histogram (the parse histogram is recorded centrally
/// by the plan's prepare pass). Only allocated when telemetry is on; the
/// `Off` path pays a single `Option` check per statement.
struct ShardObserver<'a> {
    opts: &'a TelemetryOptions,
    seed_functions: &'a [Option<Arc<str>>],
    fault_index: &'a FaultIndex<'a>,
    events: Vec<StatementEvent>,
    snapshots: Vec<(usize, Coverage)>,
    latency: StageLatency,
}

impl<'a> ShardObserver<'a> {
    fn new(
        opts: &'a TelemetryOptions,
        seed_functions: &'a [Option<Arc<str>>],
        fault_index: &'a FaultIndex<'a>,
        len: usize,
    ) -> Self {
        ShardObserver {
            opts,
            seed_functions,
            fault_index,
            events: Vec::with_capacity(len),
            snapshots: Vec::new(),
            latency: StageLatency::new(),
        }
    }

    /// Times the execution of one prepared statement. With the split entry
    /// points the stage histograms are genuinely disjoint: parse time is
    /// recorded once per statement by [`Plan::prepare`], and this measures
    /// only [`Engine::execute_prepared`] (or, for statements whose
    /// preparation failed, the replay of that error).
    fn execute_timed(
        &mut self,
        engine: &mut Engine,
        prepared: &Result<Prepared, SqlError>,
    ) -> ExecOutcome {
        let t = Instant::now();
        let outcome = execute_planned(engine, prepared);
        self.latency.execute.record(t.elapsed());
        outcome
    }

    /// Records the event for one executed statement, plus the coverage
    /// snapshot when the global index crosses the sampling interval.
    /// `logic` carries the multi-form oracle's fault id when the oracle
    /// flagged the statement; it overrides the surface outcome class, the
    /// same precedence the finding merge applies.
    fn observe(
        &mut self,
        engine: &Engine,
        case: &PlannedCase,
        shard: usize,
        index: usize,
        outcome: &ExecOutcome,
        logic: Option<&Arc<str>>,
    ) {
        let function = match outcome {
            ExecOutcome::Crash(c) if c.function.is_some() => {
                c.function.as_deref().map(Arc::from)
            }
            _ => self.seed_functions.get(case.seed).cloned().flatten(),
        };
        let (class, fault_id) = match (logic, outcome) {
            (Some(fault), _) => (OutcomeClass::LogicBug, Some(Arc::clone(fault))),
            (None, ExecOutcome::Crash(c)) => (
                OutcomeClass::of(outcome),
                Some(
                    self.fault_index
                        .get(c.fault_id.as_str())
                        .map(|(id, _)| Arc::clone(id))
                        .unwrap_or_else(|| Arc::from(c.fault_id.as_str())),
                ),
            ),
            (None, _) => (OutcomeClass::of(outcome), None),
        };
        self.events.push(StatementEvent {
            index,
            shard,
            seed: Some(case.seed),
            pattern: case.pattern,
            function,
            outcome: class,
            fault_id,
        });
        if index % self.opts.snapshot_interval.max(1) == 0 {
            self.snapshots.push((index, engine.coverage().clone()));
        }
    }

    fn finish(self, shard: usize, engine: &Engine) -> ShardTelemetry {
        ShardTelemetry {
            shard,
            events: self.events,
            snapshots: self.snapshots,
            final_coverage: engine.coverage().clone(),
            latency: self.latency,
        }
    }
}

/// Batch-executes the shape groups of one window of a shard, storing each
/// statement's precomputed `(outcome, amortized duration)` into `pre`.
///
/// Grouping is deterministic: shapes are visited in first-appearance order
/// and members stay in statement order, so the demux below replays the
/// exact serial classification. Groups smaller than
/// [`soft_engine::MIN_BATCH_GROUP`] are left to the scalar path — plan
/// compilation is a fixed cost that a couple of rows cannot amortize.
/// Statements the kernel
/// declines (`execute_batch_in` returning `None`) also fall back to the
/// scalar path, with no side effects to undo.
///
/// Correctness of executing a whole window up front: batchable statements
/// (no FROM, no subqueries, no volatile functions) read neither the catalog
/// nor mutable session state, so a mid-window crash-restore cannot change
/// any other member's outcome, and coverage — a monotone set union — is
/// identical at the window boundary whatever the intra-window execution
/// order. Windows end exactly at telemetry snapshot indices, so every
/// coverage snapshot observes the same set a serial walk would.
fn batch_window(
    engine: &mut Engine,
    prepared: &[Result<Prepared, SqlError>],
    shapes: &[Option<ShapeKey>],
    window: std::ops::Range<usize>,
    pre: &mut [Option<(ExecOutcome, Duration)>],
    arena: &mut BatchArena,
    sink: &mut Option<SpanSink>,
) {
    let mut order: Vec<ShapeKey> = Vec::new();
    let mut groups: HashMap<ShapeKey, Vec<usize>> = HashMap::new();
    for i in window {
        let Some(key) = shapes[i] else { continue };
        if prepared[i].is_err() {
            continue;
        }
        let members = groups.entry(key).or_default();
        if members.is_empty() {
            order.push(key);
        }
        members.push(i);
    }
    let mut members: Vec<&Prepared> = Vec::new();
    for key in order {
        let idxs = &groups[&key];
        if idxs.len() < MIN_BATCH_GROUP {
            continue;
        }
        members.clear();
        members.extend(
            idxs.iter().map(|&i| prepared[i].as_ref().expect("grouped statements prepared")),
        );
        let t = Instant::now();
        let span_start = sink.as_ref().map(|s| s.now_ns());
        let Some(outcomes) = engine.execute_batch_in(&members, arena) else { continue };
        if let (Some(sink), Some(start)) = (sink.as_mut(), span_start) {
            sink.record_since(
                "batch-group",
                start,
                Some(format!("{} statements", idxs.len())),
            );
        }
        let per_statement = t.elapsed() / idxs.len() as u32;
        for (&i, outcome) in idxs.iter().zip(outcomes) {
            pre[i] = Some((outcome, per_statement));
        }
    }
}

/// Executes one shard of the planned (and prepared) stream on a private
/// engine cloned from the template. Pure function of (profile, template,
/// shard range): no state is shared with other shards.
///
/// With `batch` on, the shard executes window by window: each window's
/// same-shape groups are evaluated as columnar batches up front
/// ([`batch_window`]), and the serial loop below then *demultiplexes* the
/// precomputed outcomes — every per-statement observation (telemetry event,
/// live counter, oracle check, finding, crash restore) happens at exactly
/// the point, in exactly the order, the scalar path performs it.
fn run_shard(
    profile: &DialectProfile,
    fault_index: &FaultIndex<'_>,
    template: &Engine,
    plan: &Plan,
    range: std::ops::Range<usize>,
    shard: usize,
    telemetry: Option<&TelemetryOptions>,
    oracles: Option<&OracleOptions>,
    live: Option<&LiveMetrics>,
    batch: bool,
    span_origin: Option<Instant>,
) -> ShardOutcome {
    let t0 = Instant::now();
    // The flight recorder: this worker owns the sink exclusively, so every
    // record is a plain Vec push — no locks, no atomics. Track `shard + 1`
    // keeps the campaign thread's track 0 distinct in the exported trace.
    let mut sink = span_origin.map(|origin| SpanSink::new(origin, shard as u64 + 1));
    let shard_span_start = sink.as_ref().map(|s| s.now_ns());
    let start_offset = range.start;
    let cases = &plan.cases[range.clone()];
    let prepared = &plan.prepared[range.clone()];
    let shapes = &plan.shapes[range];
    let mut engine = template.clone();
    // The batch plane: per-statement precomputed outcomes, one reusable
    // column arena for the whole shard, and the window cursor. Windows end
    // at coverage-snapshot indices (one window per shard when telemetry is
    // off) so snapshots observe exactly the serial coverage set.
    let mut arena = BatchArena::new();
    let mut pre: Vec<Option<(ExecOutcome, Duration)>> = Vec::new();
    if batch {
        pre.resize_with(cases.len(), || None);
    }
    let snapshot_interval = telemetry.map(|opts| opts.snapshot_interval.max(1));
    let mut window_end = 0usize;
    let mut found: HashSet<String> = HashSet::new();
    let mut findings: Vec<BugFinding> = Vec::new();
    let mut observer = telemetry
        .map(|opts| ShardObserver::new(opts, &plan.seed_functions, fault_index, cases.len()));
    // The live plane: this worker owns heartbeat slot `shard` exclusively
    // while the shard runs, so every update below is wait-free.
    let live = live.map(|m| (m, m.beats()));
    if let Some((m, beats)) = &live {
        m.shard_started(&beats[shard], shard);
    }
    let mut crashes = 0usize;
    let mut false_positives = 0usize;
    let mut errors = 0usize;
    let mut logic_bugs = 0usize;
    for (i, case) in cases.iter().enumerate() {
        if batch && i >= window_end {
            // Entering the next window: its end is the next global snapshot
            // index (or the shard end), and its shape groups batch-execute
            // now, against exactly the engine state a serial walk has at
            // this point.
            window_end = match snapshot_interval {
                Some(iv) => (((start_offset + i) / iv + 1) * iv - start_offset).min(cases.len()),
                None => cases.len(),
            };
            batch_window(
                &mut engine,
                prepared,
                shapes,
                i..window_end,
                &mut pre,
                &mut arena,
                &mut sink,
            );
        }
        let batched = pre.get_mut(i).and_then(Option::take);
        let from_batch = batched.is_some();
        let outcome = match batched {
            Some((outcome, spent)) => {
                // The execute histogram keeps one sample per statement:
                // batched statements record their amortized share of the
                // group's wall-clock.
                if let Some(obs) = &mut observer {
                    obs.latency.execute.record(spent);
                }
                outcome
            }
            None => {
                // Scalar execution gets its own span; batched statements
                // are already covered by the window's batch-group spans.
                let span_start = sink.as_ref().map(|s| s.now_ns());
                let outcome = match &mut observer {
                    Some(obs) => obs.execute_timed(&mut engine, &prepared[i]),
                    None => execute_planned(&mut engine, &prepared[i]),
                };
                if let (Some(sink), Some(start)) = (sink.as_mut(), span_start) {
                    sink.record_since("execute", start, None);
                }
                outcome
            }
        };
        // The multi-form oracle inspects every statement the crash plane
        // passed on. It executes the statement's forms on private clones of
        // the *template* (never this shard's engine), so the verdict is a
        // pure function of (template, statement) — shard state and worker
        // count cannot change it. A batched outcome *is* the prepared-path
        // outcome of a state-independent statement, so it doubles as the
        // oracle's reference form and only the unfolded form executes.
        let logic = match (&outcome, oracles) {
            (ExecOutcome::Crash(_), _) | (_, None) => None,
            (_, Some(opts)) if !opts.multi_form => None,
            (_, Some(_)) => prepared[i].as_ref().ok().and_then(|p| {
                let span_start = sink.as_ref().map(|s| s.now_ns());
                let bug = if from_batch {
                    oracle::multi_form_check_with(template, &case.sql, p.statement(), &outcome)
                } else {
                    oracle::multi_form_check(template, &case.sql, p.statement())
                };
                if let (Some(sink), Some(start)) = (sink.as_mut(), span_start) {
                    sink.record_since("oracle", start, None);
                }
                bug.map(|bug| (oracle::multi_form_fault_id(p.statement()), bug))
            }),
        };
        let logic_fault: Option<Arc<str>> =
            logic.as_ref().map(|((id, _), _)| Arc::from(id.as_str()));
        if let Some(obs) = &mut observer {
            obs.observe(
                &engine,
                case,
                shard,
                start_offset + i + 1,
                &outcome,
                logic_fault.as_ref(),
            );
        }
        if let Some((m, beats)) = &live {
            let class = if logic.is_some() {
                OutcomeClass::LogicBug
            } else {
                OutcomeClass::of(&outcome)
            };
            m.record_statement(&beats[shard], start_offset + i + 1, case.pattern, class);
        }
        if let Some(((fault_id, function), bug)) = logic {
            logic_bugs += 1;
            if found.insert(fault_id.clone()) {
                if let Some((m, _)) = &live {
                    m.record_unique_candidate(&fault_id);
                }
                let category = function
                    .as_deref()
                    .and_then(|f| profile.registry.resolve(f).map(|d| d.category))
                    .unwrap_or(soft_types::category::FunctionCategory::System);
                findings.push(BugFinding {
                    fault_id,
                    dialect: profile.id,
                    kind: FindingKind::Logic(bug),
                    stage: Stage::Execution,
                    category,
                    credited_pattern: case.pattern.unwrap_or(PatternId::P1_2),
                    found_by_pattern: case.pattern.unwrap_or(PatternId::P1_2),
                    function,
                    seed_function: plan.seed_functions.get(case.seed).cloned().flatten(),
                    poc: case.sql.clone(),
                    statements_until_found: start_offset + i + 1,
                    fixed: false,
                });
            }
            // The statement is accounted as a wrong result; its surface
            // outcome class (rows, ok, error) does not also count below.
            continue;
        }
        match outcome {
            ExecOutcome::Crash(c) => {
                crashes += 1;
                if found.insert(c.fault_id.clone()) {
                    if let Some((m, _)) = &live {
                        m.record_unique_candidate(&c.fault_id);
                    }
                    // Look up the corpus entry for ground-truth metadata.
                    let spec = fault_index.get(c.fault_id.as_str()).map(|&(_, s)| s);
                    findings.push(BugFinding {
                        fault_id: c.fault_id.clone(),
                        dialect: profile.id,
                        kind: FindingKind::Crash(c.kind),
                        stage: c.stage,
                        category: spec
                            .map(|s| s.category)
                            .unwrap_or(soft_types::category::FunctionCategory::System),
                        credited_pattern: spec.map(|s| s.pattern).unwrap_or(PatternId::P1_2),
                        found_by_pattern: case.pattern.unwrap_or(PatternId::P1_2),
                        function: c.function.clone(),
                        seed_function: plan.seed_functions.get(case.seed).cloned().flatten(),
                        poc: case.sql.clone(),
                        statements_until_found: start_offset + i + 1,
                        fixed: spec.map(|s| s.fixed).unwrap_or(false),
                    });
                }
                // "Restart" the DBMS: snapshot-restore from the prepared
                // template — state-identical to reset + preparation replay,
                // without re-executing the preparation statements.
                engine.restore_database(template);
            }
            ExecOutcome::Error(SqlError::ResourceLimit(_)) => false_positives += 1,
            ExecOutcome::Error(_) => errors += 1,
            ExecOutcome::Rows(_) | ExecOutcome::Ok(_) => {}
        }
    }
    if let Some((m, beats)) = &live {
        m.shard_finished(&beats[shard], shard, engine.coverage());
    }
    if let (Some(sink), Some(start)) = (sink.as_mut(), shard_span_start) {
        sink.record_since("shard", start, Some(format!("{} statements", cases.len())));
    }
    ShardOutcome {
        stats: ShardStats {
            shard,
            start_offset,
            statements: cases.len(),
            crashes,
            errors,
            false_positives,
            logic_bugs,
        },
        findings,
        telemetry: observer.map(|obs| obs.finish(shard, &engine)),
        coverage: engine.coverage().clone(),
        nanos: t0.elapsed().as_nanos(),
        spans: sink.map(SpanSink::into_spans).unwrap_or_default(),
    }
}

/// Anything that can stream test statements at a target — the interface the
/// baseline tools implement for the Tables 5/6 comparison.
pub trait StatementGenerator {
    /// Tool name (for report labels).
    fn name(&self) -> &'static str;
    /// Produces the next statement, or `None` when the tool is exhausted.
    fn next_statement(&mut self) -> Option<String>;
}

/// Runs any statement generator against a profile under a budget,
/// measuring the same campaign metrics as [`run_soft`].
pub fn run_generator(
    profile: &DialectProfile,
    generator: &mut dyn StatementGenerator,
    max_statements: usize,
) -> CampaignReport {
    let fault_index = build_fault_index(profile);
    let mut engine = profile.engine();
    let mut statements = 0usize;
    let mut false_positives = 0usize;
    let mut errors = 0usize;
    let mut found: HashSet<String> = HashSet::new();
    let mut findings: Vec<BugFinding> = Vec::new();
    while statements < max_statements {
        let Some(sql) = generator.next_statement() else { break };
        statements += 1;
        // Same prepared discipline as the campaign shards: parse once, then
        // execute the AST (external generators stream, so prepare and
        // execute are back to back here).
        let prepared = engine.prepare(&sql);
        match execute_planned(&mut engine, &prepared) {
            ExecOutcome::Crash(c) => {
                if found.insert(c.fault_id.clone()) {
                    let spec = fault_index.get(c.fault_id.as_str()).map(|&(_, s)| s);
                    findings.push(BugFinding {
                        fault_id: c.fault_id.clone(),
                        dialect: profile.id,
                        kind: FindingKind::Crash(c.kind),
                        stage: c.stage,
                        category: spec
                            .map(|s| s.category)
                            .unwrap_or(soft_types::category::FunctionCategory::System),
                        credited_pattern: spec.map(|s| s.pattern).unwrap_or(PatternId::P1_2),
                        found_by_pattern: spec.map(|s| s.pattern).unwrap_or(PatternId::P1_2),
                        function: c.function.clone(),
                        // External generators carry no seed provenance.
                        seed_function: None,
                        poc: sql.clone(),
                        statements_until_found: statements,
                        fixed: spec.map(|s| s.fixed).unwrap_or(false),
                    });
                }
                engine.reset_database();
            }
            ExecOutcome::Error(SqlError::ResourceLimit(_)) => false_positives += 1,
            ExecOutcome::Error(_) => errors += 1,
            _ => {}
        }
    }
    CampaignReport {
        dialect: profile.id,
        statements_executed: statements,
        findings,
        false_positives,
        errors,
        functions_triggered: engine.coverage().functions_triggered(),
        branches_covered: engine.coverage().branches_covered(),
        // External generators are not pattern-based.
        generated_per_pattern: Vec::new(),
        // ... and they stream into a single engine, unsharded.
        shards: Vec::new(),
        // ... and they carry no plan provenance, so no journal either.
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_dialects::DialectId;

    #[test]
    fn small_budget_campaign_is_deterministic() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 3_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let a = run_soft(&profile, &cfg);
        let b = run_soft(&profile, &cfg);
        assert_eq!(a.statements_executed, b.statements_executed);
        assert_eq!(
            a.findings.iter().map(|f| &f.fault_id).collect::<Vec<_>>(),
            b.findings.iter().map(|f| &f.fault_id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn campaign_finds_bugs_in_clickhouse() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 60_000,
            per_seed_cap: 48,
            ..CampaignConfig::default()
        };
        let report = run_soft(&profile, &cfg);
        assert!(
            !report.findings.is_empty(),
            "SOFT should find at least one of the 6 ClickHouse bugs"
        );
        // Findings carry unique fault ids.
        let ids: HashSet<&String> = report.findings.iter().map(|f| &f.fault_id).collect();
        assert_eq!(ids.len(), report.findings.len());
        // Coverage was recorded.
        assert!(report.functions_triggered > 100);
        assert!(report.branches_covered > 500);
    }

    #[test]
    fn budget_is_respected() {
        let profile = DialectProfile::build(DialectId::Monetdb);
        let cfg = CampaignConfig {
            max_statements: 500,
            per_seed_cap: 4,
            ..CampaignConfig::default()
        };
        let report = run_soft(&profile, &cfg);
        assert!(report.statements_executed <= 500);
    }

    #[test]
    fn shard_stats_partition_the_stream() {
        let profile = DialectProfile::build(DialectId::Monetdb);
        let cfg = CampaignConfig {
            max_statements: 1_000,
            per_seed_cap: 4,
            shard_statements: 128,
            ..CampaignConfig::default()
        };
        let report = run_soft(&profile, &cfg);
        assert!(!report.shards.is_empty());
        // Shards tile the stream: contiguous offsets, summed statements.
        let mut expect_offset = 0usize;
        for (i, s) in report.shards.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert_eq!(s.start_offset, expect_offset);
            assert!(s.statements <= 128);
            expect_offset += s.statements;
        }
        assert_eq!(expect_offset, report.statements_executed);
        // Per-shard counters sum to the report totals.
        assert_eq!(
            report.shards.iter().map(|s| s.errors).sum::<usize>(),
            report.errors
        );
        assert_eq!(
            report.shards.iter().map(|s| s.false_positives).sum::<usize>(),
            report.false_positives
        );
    }

    #[test]
    fn telemetry_matches_the_off_run_and_journals_every_statement() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 2_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let tcfg =
            CampaignConfig { telemetry: TelemetryConfig::with_interval(500), ..cfg.clone() };
        let off = run_soft(&profile, &cfg);
        let run = run_soft_parallel_timed(&profile, &tcfg, 2);
        let on = run.report;
        let tel = on.telemetry.as_ref().expect("telemetry recorded");

        // One event per executed statement, indices 1..=n in order.
        assert_eq!(tel.journal.events.len(), on.statements_executed);
        assert!(tel.journal.events.iter().enumerate().all(|(i, e)| e.index == i + 1));

        // Observation never changes results: stripping the telemetry field
        // yields exactly the telemetry-off report.
        let mut stripped = on.clone();
        stripped.telemetry = None;
        assert_eq!(stripped, off, "telemetry changed campaign results");

        // The bug curve replays the findings merge: same faults, same
        // discovery indices, same order.
        assert_eq!(tel.curves.bugs.len(), on.findings.len());
        for (b, f) in tel.curves.bugs.iter().zip(&on.findings) {
            assert_eq!(b.fault_id, f.fault_id);
            assert_eq!(b.statements, f.statements_until_found);
        }

        // Coverage snapshots land on interval multiples and grow.
        assert!(!tel.curves.coverage.is_empty());
        for p in &tel.curves.coverage {
            assert_eq!(p.statements % 500, 0);
        }
        assert!(tel
            .curves
            .coverage
            .windows(2)
            .all(|w| w[0].branches <= w[1].branches && w[0].statements < w[1].statements));

        // Wall-clock stage histograms: one execute (and parse) sample per
        // statement, one minimize sample per unique finding, at least one
        // generate sample per active pattern.
        let latency = run.stage_latency.expect("stage latency recorded");
        assert_eq!(latency.execute.samples() as usize, on.statements_executed);
        assert_eq!(latency.parse.samples(), latency.execute.samples());
        assert_eq!(latency.minimize.samples() as usize, on.findings.len());
        assert_eq!(latency.generate.samples() as usize, on.generated_per_pattern.len());

        // Yields reconcile with the report's counters.
        let executed: usize =
            tel.yields.per_pattern.values().map(|y| y.executed).sum();
        let seed_replays = tel.journal.events.iter().filter(|e| e.pattern.is_none()).count();
        assert_eq!(executed + seed_replays, on.statements_executed);
        let unique: usize = tel.yields.per_pattern.values().map(|y| y.unique_bugs).sum();
        assert_eq!(unique, on.findings.len());
    }

    #[test]
    fn prepared_path_matches_the_string_path_reference() {
        // The pre-split execution semantics, replayed verbatim: render each
        // planned case to SQL, execute the string, and on a crash reset the
        // database and re-execute the preparation statements. The prepared
        // pipeline (parse-once plan, AST execution, snapshot restore) must
        // be byte-identical to it.
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 2_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let report = run_soft(&profile, &cfg);

        let collection = collect::collect(&profile);
        let ctx = GenCtx::new(&collection);
        let prep: Vec<String> =
            collection.preparation.iter().map(|s| s.to_string()).collect();
        let plan = build_plan(&collection, &ctx, &cfg, 1);
        let mut template = profile.engine();
        for sql in &prep {
            let _ = template.execute(sql);
        }

        let shard_size = cfg.shard_statements.max(1);
        let mut merged: Vec<(String, usize)> = Vec::new();
        let mut global_found: HashSet<String> = HashSet::new();
        let mut coverage = Coverage::new();
        let (mut statements, mut fp, mut errs) = (0usize, 0usize, 0usize);
        for (si, chunk) in plan.cases.chunks(shard_size).enumerate() {
            let start_offset = si * shard_size;
            let mut engine = template.clone();
            let mut found: HashSet<String> = HashSet::new();
            let mut shard_findings: Vec<(String, usize)> = Vec::new();
            for (i, case) in chunk.iter().enumerate() {
                statements += 1;
                match engine.execute(&case.sql) {
                    ExecOutcome::Crash(c) => {
                        if found.insert(c.fault_id.clone()) {
                            shard_findings.push((c.fault_id, start_offset + i + 1));
                        }
                        engine.reset_database();
                        for sql in &prep {
                            let _ = engine.execute(sql);
                        }
                    }
                    ExecOutcome::Error(SqlError::ResourceLimit(_)) => fp += 1,
                    ExecOutcome::Error(_) => errs += 1,
                    ExecOutcome::Rows(_) | ExecOutcome::Ok(_) => {}
                }
            }
            coverage.merge(engine.coverage());
            for f in shard_findings {
                if global_found.insert(f.0.clone()) {
                    merged.push(f);
                }
            }
        }

        assert_eq!(statements, report.statements_executed);
        assert_eq!(fp, report.false_positives);
        assert_eq!(errs, report.errors);
        assert_eq!(coverage.functions_triggered(), report.functions_triggered);
        assert_eq!(coverage.branches_covered(), report.branches_covered);
        assert_eq!(merged.len(), report.findings.len());
        for ((id, at), f) in merged.iter().zip(&report.findings) {
            assert_eq!(id, &f.fault_id);
            assert_eq!(*at, f.statements_until_found);
        }
    }

    #[test]
    fn parallel_equals_serial_and_reports_timings() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 2_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let serial = run_soft(&profile, &cfg);
        let run = run_soft_parallel_timed(&profile, &cfg, 3);
        assert_eq!(serial, run.report, "worker count leaked into the report");
        assert_eq!(run.workers, 3);
        assert_eq!(run.shard_timings.len(), run.report.shards.len());
        assert!(run.statements_per_sec() > 0.0);
        for (t, s) in run.shard_timings.iter().zip(&run.report.shards) {
            assert_eq!(t.shard, s.shard);
            assert_eq!(t.statements, s.statements);
        }
    }

    #[test]
    fn oracles_flag_wrong_results_and_keep_worker_invariance() {
        // The ClickHouse seed corpus replays `SELECT toString(42)` in phase
        // 1 at any budget, and the shipped provenance quirk makes it return
        // "42.0" — the multi-form oracle must flag it, end to end.
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 3_000,
            per_seed_cap: 4,
            telemetry: TelemetryConfig::with_interval(500),
            oracles: OracleConfig::on(),
            ..CampaignConfig::default()
        };
        let serial = run_soft_parallel(&profile, &cfg, 1);
        let logic: Vec<&BugFinding> =
            serial.findings.iter().filter(|f| f.kind.logic().is_some()).collect();
        assert!(
            logic.iter().any(|f| f.fault_id == "logic-multiform-tostring"),
            "seeded toString(42) must trip the multi-form oracle; findings: {:?}",
            serial.findings.iter().map(|f| &f.fault_id).collect::<Vec<_>>()
        );
        for f in &logic {
            let bug = f.kind.logic().expect("logic finding");
            assert!(!bug.expected.is_empty() && !bug.actual.is_empty());
            assert_ne!(bug.expected, bug.actual);
        }
        // Shard counters and the journal both carry the wrong-result class.
        assert!(serial.shards.iter().map(|s| s.logic_bugs).sum::<usize>() > 0);
        let tel = serial.telemetry.as_ref().expect("telemetry on");
        assert!(tel
            .journal
            .events
            .iter()
            .any(|e| e.outcome == OutcomeClass::LogicBug
                && e.fault_id.as_deref() == Some("logic-multiform-tostring")));
        // The unique-bug curve steps on logic findings like crash findings.
        assert!(tel.curves.bugs.iter().any(|b| b.fault_id == "logic-multiform-tostring"));

        // Oracles are pure functions of (template, statement): the report —
        // telemetry included — stays byte-identical across worker counts.
        for workers in [2, 4, 7] {
            assert_eq!(
                run_soft_parallel(&profile, &cfg, workers),
                serial,
                "worker count leaked into the oracle-armed report"
            );
        }
    }

    #[test]
    fn oracles_off_is_the_default_and_changes_nothing() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 1_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        assert!(!cfg.oracles.is_on());
        let report = run_soft(&profile, &cfg);
        assert!(report.findings.iter().all(|f| f.kind.crash().is_some()));
        assert!(report.shards.iter().all(|s| s.logic_bugs == 0));
    }
}
