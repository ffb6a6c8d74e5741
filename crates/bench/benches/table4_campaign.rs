//! The Table 4 experiment as a benchmark: a reduced-budget SOFT campaign
//! per target, reporting bug-discovery work rates, plus the parallel
//! runner's 1-vs-2-worker scaling pair (statements/sec — the §7.1
//! 128-core-testbed analogue). The full-budget run is `repro table4`.

use soft_bench::Bench;
use soft_core::campaign::{run_soft_parallel, CampaignConfig};
use soft_core::TelemetryConfig;
use soft_dialects::{DialectId, DialectProfile};
use std::hint::black_box;

fn main() {
    let mut b = Bench::new("table4_campaign");

    let cfg = CampaignConfig { max_statements: 2_000, per_seed_cap: 8, ..CampaignConfig::default() };
    for id in [DialectId::Monetdb, DialectId::Clickhouse, DialectId::Mariadb] {
        let profile = DialectProfile::build(id);
        let statements = run_soft_parallel(&profile, &cfg, 1).statements_executed;
        b.bench_items(&format!("table4_campaign/{}", id.name()), statements as u64, || {
            let report = run_soft_parallel(&profile, &cfg, 1);
            black_box(report.findings.len())
        });
    }

    // Worker scaling as a drift-robust pair: the `repro campaign clickhouse
    // --budget 60000` configuration at 1 vs 2 workers, the two arms
    // alternating inside one measurement window. The report is
    // byte-identical across worker counts (the determinism-by-merge
    // guarantee); only items_per_sec moves. Generation, preparation and
    // execution all run on the workers, so on a host with two free cores
    // the ratio is ~2x; `scripts/verify.sh` gates it at >= 1.6x.
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let scaling_cfg =
        CampaignConfig { max_statements: 60_000, per_seed_cap: 64, ..CampaignConfig::default() };
    let reference = run_soft_parallel(&profile, &scaling_cfg, 1);
    assert_eq!(
        reference,
        run_soft_parallel(&profile, &scaling_cfg, 2),
        "worker count changed the campaign report"
    );
    let statements = reference.statements_executed as u64;
    let (one, two) = b.bench_pair(
        ("table4_campaign/parallel/ClickHouse/workers1", statements, &mut || {
            black_box(run_soft_parallel(&profile, &scaling_cfg, 1).findings.len())
        }),
        ("table4_campaign/parallel/ClickHouse/workers2", statements, &mut || {
            black_box(run_soft_parallel(&profile, &scaling_cfg, 2).findings.len())
        }),
    );
    let one_rate = one.items_per_sec().expect("throughput declared");
    let two_rate = two.items_per_sec().expect("throughput declared");
    println!(
        "table4_campaign/scaling: {:.2}x statements/sec at 2 workers ({:.0} vs {:.0})",
        two_rate / one_rate,
        two_rate,
        one_rate
    );

    // Telemetry off vs on: a smaller campaign at 4 workers, then the same
    // campaign with the event journal, yield metrics, and coverage curves
    // active. Stripping the telemetry field back to `None` must recover the
    // Off-mode report exactly (the ledger observes the run, it never steers
    // it); the throughput gap between the two arms is the telemetry
    // overhead.
    let small_cfg =
        CampaignConfig { max_statements: 6_000, per_seed_cap: 8, ..CampaignConfig::default() };
    let telemetry_cfg = CampaignConfig { telemetry: TelemetryConfig::on(), ..small_cfg.clone() };
    let off = run_soft_parallel(&profile, &small_cfg, 4);
    let mut on = run_soft_parallel(&profile, &telemetry_cfg, 4);
    assert!(on.telemetry.is_some(), "telemetry was requested");
    on.telemetry = None;
    assert_eq!(off, on, "telemetry changed the campaign report");
    let statements = off.statements_executed as u64;
    b.bench_items("table4_campaign/parallel/ClickHouse/workers4", statements, || {
        black_box(run_soft_parallel(&profile, &small_cfg, 4).findings.len())
    });
    b.bench_items("table4_campaign/parallel/ClickHouse/workers4/telemetry", statements, || {
        black_box(run_soft_parallel(&profile, &telemetry_cfg, 4).findings.len())
    });

    // Building a profile includes corpus construction and witness synthesis.
    b.bench("profile_build/virtuoso", || {
        black_box(DialectProfile::build(DialectId::Virtuoso))
    });

    b.finish();
}
