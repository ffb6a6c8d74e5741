//! Oracle-plane cost: the same campaign with the wrong-result oracles off
//! vs armed, measured as a drift-robust pair (the two arms alternate
//! inside one measurement window, so their ratio is immune to
//! thermal/frequency drift).
//!
//! An armed campaign runs the multi-form oracle on every planned statement
//! with something to unfold — one extra execution on a template clone, two
//! when the statement did not take the batch path — plus the pivot and
//! differential oracles once per campaign. EXPERIMENTS.md ("Wrong-result
//! oracles") records the measured off/on ratio and `scripts/verify.sh`
//! gates it. The oracles must never change what the crash plane finds, so
//! both arms' crash findings are asserted equal up front.

use soft_bench::Bench;
use soft_core::campaign::{run_soft_parallel, CampaignConfig};
use soft_core::report::{BugFinding, CampaignReport, FindingKind};
use soft_core::OracleConfig;
use soft_dialects::{DialectId, DialectProfile};
use std::hint::black_box;

/// The crash findings of a report, in report order.
fn crash_findings(report: &CampaignReport) -> Vec<&BugFinding> {
    report.findings.iter().filter(|f| matches!(f.kind, FindingKind::Crash(_))).collect()
}

fn main() {
    let mut b = Bench::new("oracles");

    // The `repro campaign clickhouse --budget 60000` configuration: large
    // enough that execution, not the ~1 s serial planner both arms share,
    // dominates each run.
    let off_cfg =
        CampaignConfig { max_statements: 60_000, per_seed_cap: 64, ..CampaignConfig::default() };
    let on_cfg = CampaignConfig { oracles: OracleConfig::on(), ..off_cfg.clone() };
    let profile = DialectProfile::build(DialectId::Clickhouse);

    let off_report = run_soft_parallel(&profile, &off_cfg, 2);
    let on_report = run_soft_parallel(&profile, &on_cfg, 2);
    assert_eq!(
        crash_findings(&off_report),
        crash_findings(&on_report),
        "arming the oracles changed the crash findings"
    );
    let statements = off_report.statements_executed;
    println!(
        "oracles/findings: {} crash, {} logic over {statements} statements",
        crash_findings(&on_report).len(),
        on_report.logic_count()
    );

    let (off, on) = b.bench_pair(
        ("oracles/ClickHouse/off", statements as u64, &mut || {
            black_box(run_soft_parallel(&profile, &off_cfg, 2).findings.len())
        }),
        ("oracles/ClickHouse/on", statements as u64, &mut || {
            black_box(run_soft_parallel(&profile, &on_cfg, 2).findings.len())
        }),
    );
    let off_rate = off.items_per_sec().expect("throughput declared");
    let on_rate = on.items_per_sec().expect("throughput declared");
    println!(
        "oracles/cost: {:.2}x statements/sec ({:.0} off vs {:.0} on)",
        off_rate / on_rate,
        off_rate,
        on_rate
    );

    b.finish();
}
