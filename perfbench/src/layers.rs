//! Per-layer metrics of the traced run.
//!
//! Two sources feed them:
//!
//! - **Campaign spans**: the flight recorder (`LivePlane::spans`) armed on
//!   every campaign call. Self time is a span's duration minus the time its
//!   children cover. A child is a span nested on the same track, or the
//!   root span of the level below: flight-recorder `campaign` spans under
//!   the benchmark's `campaign-call`, and `shard` spans under the campaign
//!   track's spans (the campaign thread waits for them).
//! - **Layer walk**: the benchmark's own spans around direct calls to the
//!   public layer entry points — collection, generation per pattern,
//!   prepare, clone, execute (restoring after a crash), the multi-form
//!   oracle, bundle and replay — on a seeded sample, with per-call
//!   latencies and, through the traced binary's counting allocator, heap
//!   allocations per call.
//!
//! The merged spans (flight recorder plus benchmark) are exported as Chrome
//! trace-event JSON next to the run's other outputs.

use crate::{
    quantile, run_triage, AllocCounter, Check, Metrics, WorkloadRun, PER_SEED_CAP, WORKERS,
};
use soft_core::collect;
use soft_core::oracle::multi_form_check_with;
use soft_core::patterns::{apply_salted, GenCtx};
use soft_core::FindingKind;
use soft_dialects::DialectProfile;
use soft_engine::PatternId;
use soft_obs::span::{validate_json, CAMPAIGN_TRACK};
use soft_obs::{SpanRecord, SpanSink, SpanTrace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The track of the benchmark's own spans, apart from the campaign track
/// (0) and the shard tracks (`shard + 1`).
pub const BENCH_TRACK: u64 = 1_000_000;

/// Seeds per dialect whose generation the walk times.
const SEED_SAMPLE: usize = 48;
/// Generated statements per dialect the walk prepares and executes.
const STMT_SAMPLE: usize = 4_000;
/// Template clones per dialect the walk times.
const CLONE_SAMPLE: usize = 40;
/// Multi-form oracle checks per dialect the walk times.
const ORACLE_SAMPLE: usize = 400;

/// SplitMix64: the walk's sample selection, a pure function of `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `k` distinct indices below `n`, ascending.
    fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + (self.next() % (n - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

/// What the layer walk measured, summed over the workload's dialects.
#[derive(Default)]
struct Walk {
    collect: Duration,
    seeds: usize,
    expressions: usize,
    generate: Duration,
    generate_cases: usize,
    generate_allocs: u64,
    prepare_us: Vec<f64>,
    prepare_allocs: u64,
    clone_us: Vec<f64>,
    execute_us: Vec<f64>,
    execute_allocs: u64,
    oracle_us: Vec<f64>,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One timed call: wall time and allocations the calling thread made.
fn timed<T>(allocs: AllocCounter, f: impl FnOnce() -> T) -> (T, Duration, u64) {
    let a0 = allocs();
    let t = Instant::now();
    let out = f();
    let spent = t.elapsed();
    (out, spent, allocs() - a0)
}

/// Walks the public layer calls of one dialect on a seeded sample.
fn walk(
    profile: &DialectProfile,
    seed: u64,
    allocs: AllocCounter,
    sink: &mut SpanSink,
    w: &mut Walk,
) {
    let name = profile.id.name();
    let mut rng = Rng(seed ^ (profile.id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));

    let span = sink.now_ns();
    let (collection, spent, _) = timed(allocs, || collect::collect(profile));
    w.collect += spent;
    w.seeds += collection.seeds.len();
    w.expressions += collection.expressions.len();
    sink.record_since("walk.collect", span, Some(name.to_string()));

    let span = sink.now_ns();
    let ctx = GenCtx::new(&collection);
    sink.record_since("walk.genctx", span, Some(name.to_string()));

    let seeds = rng.sample(collection.seeds.len(), SEED_SAMPLE);
    let mut cases = Vec::new();
    for pattern in PatternId::ALL {
        let span = sink.now_ns();
        let before = cases.len();
        let ((), spent, n_allocs) = timed(allocs, || {
            for &si in &seeds {
                apply_salted(
                    pattern,
                    &collection.seeds[si],
                    &ctx,
                    PER_SEED_CAP,
                    si,
                    &mut cases,
                );
            }
        });
        w.generate += spent;
        w.generate_allocs += n_allocs;
        w.generate_cases += cases.len() - before;
        sink.record_since(
            "walk.generate",
            span,
            Some(format!("{name} {}", pattern.label())),
        );
    }

    let mut template = profile.engine();
    for stmt in &collection.preparation {
        let _ = template.execute(&stmt.to_string());
    }

    let span = sink.now_ns();
    let mut prepared = Vec::new();
    for i in rng.sample(cases.len(), STMT_SAMPLE) {
        let sql = &cases[i].sql;
        let (result, spent, n_allocs) = timed(allocs, || template.prepare(sql));
        w.prepare_us.push(micros(spent));
        w.prepare_allocs += n_allocs;
        if let Ok(p) = result {
            prepared.push((sql.as_str(), p));
        }
    }
    sink.record_since("walk.prepare", span, Some(name.to_string()));

    let span = sink.now_ns();
    for _ in 0..CLONE_SAMPLE {
        let (engine, spent, _) = timed(allocs, || template.clone());
        w.clone_us.push(micros(spent));
        drop(engine);
    }
    sink.record_since("walk.clone", span, Some(name.to_string()));

    let span = sink.now_ns();
    let mut engine = template.clone();
    let mut references = Vec::new();
    for (sql, p) in &prepared {
        let (outcome, spent, n_allocs) = timed(allocs, || engine.execute_prepared(p));
        w.execute_us.push(micros(spent));
        w.execute_allocs += n_allocs;
        if outcome.is_crash() {
            engine.restore_database(&template);
        } else if references.len() < ORACLE_SAMPLE {
            references.push((*sql, p, outcome));
        }
    }
    sink.record_since("walk.execute", span, Some(name.to_string()));

    let span = sink.now_ns();
    for (sql, p, reference) in &references {
        let (_, spent, _) = timed(allocs, || {
            multi_form_check_with(&template, sql, p.statement(), reference)
        });
        w.oracle_us.push(micros(spent));
    }
    sink.record_since("walk.oracle", span, Some(name.to_string()));
}

/// Per-span-name totals of a trace.
#[derive(Default, Clone, Copy)]
struct NameStat {
    count: usize,
    total_ns: u64,
    self_ns: u64,
}

/// A span's hierarchy level: benchmark above campaign above shards.
fn level(track: u64) -> u8 {
    match track {
        BENCH_TRACK => 0,
        CAMPAIGN_TRACK => 1,
        _ => 2,
    }
}

fn end(s: &SpanRecord) -> u64 {
    s.start_ns + s.dur_ns
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Self time of every span (aligned with `spans`): duration minus the
/// union of its children, as the module doc defines them.
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    // Same-track nesting: spans of one track come from one thread, so they
    // nest properly; a stack finds each span's direct parent.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (
            spans[i].track,
            spans[i].start_ns,
            std::cmp::Reverse(spans[i].dur_ns),
        )
    });
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            if spans[top].track != s.track || end(&spans[top]) <= s.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            children[parent].push((s.start_ns, end(s)));
        }
        stack.push(i);
    }
    // Cross-level children: the roots of the level below.
    let roots = |lvl: u8, name: &str| -> Vec<(u64, u64)> {
        let mut r: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| level(s.track) == lvl && s.name == name)
            .map(|s| (s.start_ns, end(s)))
            .collect();
        r.sort_unstable();
        r
    };
    let below = [roots(1, "campaign"), roots(2, "shard")];
    for (i, s) in spans.iter().enumerate() {
        let lvl = level(s.track) as usize;
        if lvl >= 2 {
            continue;
        }
        let candidates = &below[lvl];
        let from = candidates.partition_point(|&(start, _)| start < s.start_ns);
        for &(start, e) in &candidates[from..] {
            if start >= end(s) {
                break;
            }
            if e <= end(s) {
                children[i].push((start, e));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns.saturating_sub(covered(c, s.start_ns, end(s))))
        .collect()
}

fn by_name(spans: &[SpanRecord], selfs: &[u64]) -> BTreeMap<(u8, &'static str), NameStat> {
    let mut out: BTreeMap<(u8, &'static str), NameStat> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let e = out.entry((level(s.track), s.name)).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns;
        e.self_ns += own;
    }
    out
}

/// The layer a span name belongs to, for the self-time table.
fn layer_of(name: &str) -> &'static str {
    match name {
        "setup" => "dialects",
        "walk.collect" => "collect",
        "generate" | "walk.generate" | "walk.genctx" => "patterns",
        "campaign" | "campaign-call" | "shard" => "campaign",
        "parse" | "walk.prepare" => "engine.prepare",
        "execute" | "batch-group" | "walk.execute" => "engine.execute",
        "walk.clone" => "engine.clone",
        "oracle" | "walk.oracle" => "oracle",
        "epoch" => "schedule",
        "journal-read" => "obs",
        "minimize" | "triage" | "walk.triage" => "minimize/forensics",
        _ => "other",
    }
}

fn render_self_times(stats: &BTreeMap<(u8, &'static str), NameStat>) -> String {
    let mut rows: Vec<(&(u8, &'static str), &NameStat)> = stats.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<20} {:<14} {:>6} {:>9} {:>10} {:>10}\n",
        "layer", "span", "level", "count", "total_s", "self_s"
    );
    for ((lvl, name), st) in rows {
        let level = ["bench", "campaign", "shard"][*lvl as usize];
        out.push_str(&format!(
            "{:<20} {:<14} {:>6} {:>9} {:>10.4} {:>10.4}\n",
            layer_of(name),
            name,
            level,
            st.count,
            st.total_ns as f64 / 1e9,
            st.self_ns as f64 / 1e9
        ));
    }
    out
}

/// Shard-level facts of one campaign's spans.
#[derive(Default)]
struct ShardFacts {
    busy_ns: u64,
    shard_ms: Vec<f64>,
    /// Busiest reconstructed worker and the mean worker, in ns.
    max_worker_ns: u64,
    mean_worker_ns: f64,
    merge_ns: u64,
    batched: usize,
    oracle_checks: usize,
    epoch_parse_ns: u64,
}

/// Shard facts of one campaign. Spans carry shards, not worker threads, so
/// workers are reconstructed: each worker runs its shards back to back, so
/// a shard goes to the worker that became free last before it started.
fn shard_facts(spans: &[SpanRecord]) -> ShardFacts {
    let mut f = ShardFacts::default();
    let mut shards: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.track != CAMPAIGN_TRACK && s.name == "shard")
        .collect();
    shards.sort_by_key(|s| s.start_ns);
    let mut free_at = [0u64; WORKERS];
    let mut busy = [0u64; WORKERS];
    for s in &shards {
        let w = (0..WORKERS)
            .filter(|&w| free_at[w] <= s.start_ns)
            .max_by_key(|&w| free_at[w])
            .unwrap_or_else(|| (0..WORKERS).min_by_key(|&w| free_at[w]).unwrap_or(0));
        free_at[w] = end(s);
        busy[w] += s.dur_ns;
        f.busy_ns += s.dur_ns;
        f.shard_ms.push(s.dur_ns as f64 / 1e6);
    }
    f.max_worker_ns = busy.iter().copied().max().unwrap_or(0);
    f.mean_worker_ns = busy.iter().sum::<u64>() as f64 / WORKERS as f64;
    // Merge: the campaign thread's time after the last shard ends that no
    // campaign-track child (oracle, minimize) covers.
    let last_shard = shards.iter().map(|s| end(s)).max().unwrap_or(0);
    let track0: Vec<&SpanRecord> = spans.iter().filter(|s| s.track == CAMPAIGN_TRACK).collect();
    if let Some(root) = track0.iter().find(|s| s.name == "campaign") {
        let window_end = end(root);
        let kids: Vec<(u64, u64)> = track0
            .iter()
            .filter(|s| s.name != "campaign")
            .map(|s| (s.start_ns, end(s)))
            .collect();
        let window = window_end.saturating_sub(last_shard);
        f.merge_ns = window - covered(kids, last_shard.min(window_end), window_end);
    }
    for s in spans {
        match (s.track == CAMPAIGN_TRACK, s.name) {
            (false, "batch-group") => {
                f.batched += s
                    .detail
                    .as_deref()
                    .and_then(|d| d.split_whitespace().next()?.parse::<usize>().ok())
                    .unwrap_or(0);
            }
            (false, "oracle") => f.oracle_checks += 1,
            _ => {}
        }
    }
    let epochs: Vec<&&SpanRecord> = track0.iter().filter(|s| s.name == "epoch").collect();
    f.epoch_parse_ns = track0
        .iter()
        .filter(|s| s.name == "parse")
        .filter(|p| {
            epochs
                .iter()
                .any(|e| e.start_ns <= p.start_ns && end(p) <= end(e))
        })
        .map(|p| p.dur_ns)
        .sum();
    f
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ms(d: &[Duration]) -> Vec<f64> {
    sorted(d.iter().map(|d| d.as_secs_f64() * 1e3).collect())
}

/// Runs the layer walk, merges and exports the spans, prints the self-time
/// table, and returns every per-layer metric.
pub fn traced_metrics(w: &mut WorkloadRun, allocs: AllocCounter) -> Metrics {
    let mut walk_stats = Walk::default();
    for call in &w.calls {
        walk(
            &call.profile,
            w.spec.seed,
            allocs,
            &mut w.bench,
            &mut walk_stats,
        );
    }
    if w.triage.is_none() {
        let span = w.bench.now_ns();
        w.triage = Some(run_triage(&w.calls, &mut w.checks));
        w.bench.record_since("walk.triage", span, None);
    }

    // Merge: each campaign's spans shifted onto the workload clock.
    let bench = std::mem::replace(&mut w.bench, SpanSink::new(w.start, BENCH_TRACK));
    let mut buffers = vec![bench.into_spans()];
    let mut facts = Vec::new();
    for call in &w.calls {
        let Some(trace) = &call.run.spans else {
            continue;
        };
        facts.push(shard_facts(&trace.spans));
        let offset = call.offset.as_nanos() as u64;
        buffers.push(
            trace
                .spans
                .iter()
                .map(|s| SpanRecord {
                    start_ns: s.start_ns + offset,
                    ..s.clone()
                })
                .collect(),
        );
    }
    let merged = SpanTrace::merge(buffers);
    let selfs = self_times(&merged.spans);
    let names = by_name(&merged.spans, &selfs);
    println!("per-layer self time ({} spans):", merged.len());
    print!("{}", render_self_times(&names));
    w.checks.push(export_trace(w, &merged));

    let stat = |lvl: u8, name: &'static str| names.get(&(lvl, name)).copied().unwrap_or_default();
    let secs = |ns: u64| ns as f64 / 1e9;
    let statements = w.statements() as f64;
    let campaign_wall = w.campaign_wall().as_secs_f64();
    let reports: Vec<&soft_core::CampaignReport> = w.calls.iter().map(|c| &c.run.report).collect();
    let generated: usize = reports
        .iter()
        .flat_map(|r| r.generated_per_pattern.iter().map(|&(_, n)| n))
        .sum();
    let shards: usize = reports.iter().map(|r| r.shards.len()).sum();
    let crashes: usize = reports
        .iter()
        .flat_map(|r| r.shards.iter().map(|s| s.crashes))
        .sum();
    let errors: usize = reports.iter().map(|r| r.errors).sum();
    let resource_limits: usize = reports.iter().map(|r| r.false_positives).sum();
    let logic_findings = reports
        .iter()
        .flat_map(|r| &r.findings)
        .filter(|f| matches!(f.kind, FindingKind::Logic(_)))
        .count();
    let sum_facts = |f: fn(&ShardFacts) -> f64| facts.iter().map(f).sum::<f64>();
    let epoch = stat(1, "epoch");
    let plan_ns = stat(1, "generate").total_ns + stat(1, "parse").total_ns + epoch.self_ns;
    let oracle = stat(1, "oracle").self_ns + stat(2, "oracle").self_ns;
    let oracle_checks = sum_facts(|f| f.oracle_checks as f64) + stat(1, "oracle").count as f64;
    let shard_ms = sorted(
        facts
            .iter()
            .flat_map(|f| f.shard_ms.iter().copied())
            .collect(),
    );
    let prepare_us = sorted(std::mem::take(&mut walk_stats.prepare_us));
    let execute_us = sorted(std::mem::take(&mut walk_stats.execute_us));
    let clone_us = sorted(std::mem::take(&mut walk_stats.clone_us));
    let oracle_us = sorted(std::mem::take(&mut walk_stats.oracle_us));
    let triage = w.triage.as_ref().expect("triage ran above");
    let (bundle_ms, replay_ms) = (ms(&triage.bundle), ms(&triage.replay));
    let replay_failures = triage.failures;
    let journal = w.journal.as_ref();
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };

    let m: Vec<(&str, f64, &'static str)> = vec![
        ("dialects.build_ms", w.setup.as_secs_f64() * 1e3, "ms"),
        ("collect.ms", walk_stats.collect.as_secs_f64() * 1e3, "ms"),
        ("collect.seeds", walk_stats.seeds as f64, "count"),
        (
            "collect.expressions",
            walk_stats.expressions as f64,
            "count",
        ),
        (
            "patterns.generate_s",
            secs(stat(1, "generate").total_ns),
            "s",
        ),
        ("patterns.cases", generated as f64, "count"),
        (
            "patterns.planned_share",
            per(statements, generated as f64),
            "ratio",
        ),
        (
            "patterns.allocs_per_case",
            per(
                walk_stats.generate_allocs as f64,
                walk_stats.generate_cases as f64,
            ),
            "count",
        ),
        (
            "patterns.us_per_case",
            per(
                micros(walk_stats.generate),
                walk_stats.generate_cases as f64,
            ),
            "us",
        ),
        ("campaign.plan_s", secs(plan_ns), "s"),
        (
            "campaign.plan_share",
            per(secs(plan_ns), secs(stat(1, "campaign").total_ns)),
            "ratio",
        ),
        (
            "campaign.shard_busy_s",
            sum_facts(|f| f.busy_ns as f64) / 1e9,
            "s",
        ),
        ("campaign.shard_ms_p50", quantile(&shard_ms, 0.5), "ms"),
        ("campaign.shard_ms_p99", quantile(&shard_ms, 0.99), "ms"),
        (
            "campaign.worker_imbalance",
            per(
                sum_facts(|f| f.max_worker_ns as f64),
                sum_facts(|f| f.mean_worker_ns),
            ),
            "ratio",
        ),
        (
            "campaign.merge_s",
            sum_facts(|f| f.merge_ns as f64) / 1e9,
            "s",
        ),
        (
            "process.cpu_util",
            per(
                w.calls.iter().map(|c| c.cpu.as_secs_f64()).sum::<f64>(),
                campaign_wall * WORKERS as f64,
            ),
            "ratio",
        ),
        ("engine.prepare_us_p50", quantile(&prepare_us, 0.5), "us"),
        ("engine.prepare_us_p99", quantile(&prepare_us, 0.99), "us"),
        (
            "engine.prepare_allocs_per_stmt",
            per(walk_stats.prepare_allocs as f64, prepare_us.len() as f64),
            "count",
        ),
        ("engine.execute_us_p50", quantile(&execute_us, 0.5), "us"),
        ("engine.execute_us_p99", quantile(&execute_us, 0.99), "us"),
        (
            "engine.execute_allocs_per_stmt",
            per(walk_stats.execute_allocs as f64, execute_us.len() as f64),
            "count",
        ),
        (
            "engine.batch_share",
            per(sum_facts(|f| f.batched as f64), statements),
            "ratio",
        ),
        (
            "engine.error_share",
            per(errors as f64, statements),
            "ratio",
        ),
        (
            "engine.crash_share",
            per(crashes as f64, statements),
            "ratio",
        ),
        (
            "engine.resource_limit_share",
            per(resource_limits as f64, statements),
            "ratio",
        ),
        ("engine.clone_us", quantile(&clone_us, 0.5), "us"),
        (
            "engine.clones_per_stmt",
            per(
                shards as f64 + crashes as f64 + 2.0 * sum_facts(|f| f.oracle_checks as f64),
                statements,
            ),
            "ratio",
        ),
        ("oracle.busy_s", secs(oracle), "s"),
        ("oracle.checks", oracle_checks, "count"),
        (
            "oracle.us_per_check",
            per(secs(oracle) * 1e6, oracle_checks),
            "us",
        ),
        ("oracle.walk_us_p50", quantile(&oracle_us, 0.5), "us"),
        ("oracle.logic_findings", logic_findings as f64, "count"),
        ("schedule.epochs", epoch.count as f64, "count"),
        (
            "schedule.epoch_plan_s",
            secs(epoch.self_ns) + sum_facts(|f| f.epoch_parse_ns as f64) / 1e9,
            "s",
        ),
        (
            "obs.journal_bytes",
            journal.map_or(0.0, |j| j.bytes as f64),
            "bytes",
        ),
        (
            "obs.journal_rows",
            journal.map_or(0.0, |j| j.rows as f64),
            "count",
        ),
        (
            "obs.journal_read_s",
            journal.map_or(0.0, |j| j.read.as_secs_f64()),
            "s",
        ),
        (
            "obs.live_events",
            w.calls.iter().map(|c| c.live_events as f64).sum(),
            "count",
        ),
        ("triage.bundle_ms_p50", quantile(&bundle_ms, 0.5), "ms"),
        ("triage.bundle_ms_p90", quantile(&bundle_ms, 0.9), "ms"),
        ("triage.replay_ms_p50", quantile(&replay_ms, 0.5), "ms"),
        ("triage.replay_ms_p90", quantile(&replay_ms, 0.9), "ms"),
        ("triage.replay_failures", replay_failures as f64, "count"),
        ("trace.stmts_per_s", statements / campaign_wall, "1/s"),
    ];
    m.into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect()
}

/// Writes the merged spans as Chrome trace-event JSON, validated before
/// the write; an invalid or unwritable trace is a failed check.
fn export_trace(w: &WorkloadRun, merged: &SpanTrace) -> Check {
    let mut json = merged.to_chrome_json(&format!("perfbench {}", w.spec.workload.name()));
    // Name the benchmark's track (the exporter labels every non-campaign
    // track as a shard).
    let label = format!(
        "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {BENCH_TRACK}, \
         \"args\": {{\"name\": \"benchmark\"}}}}"
    );
    if let Some(body) = json.strip_suffix("\n]\n") {
        json = format!("{body},\n{label}\n]\n");
    }
    let path = w
        .spec
        .out_dir
        .join(format!("{}_trace.json", w.spec.workload.name()));
    let failure = match validate_json(&json) {
        Err(e) => Some(format!("invalid trace JSON: {e}")),
        Ok(_) => std::fs::write(&path, &json)
            .err()
            .map(|e| format!("{}: {e}", path.display())),
    };
    if failure.is_none() {
        println!("trace: {} ({} spans)", path.display(), merged.len());
    }
    Check {
        name: "trace export".into(),
        failure,
    }
}
