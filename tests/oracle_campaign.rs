//! Campaign-level pin for wrong-result detection: an oracles-on ClickHouse
//! campaign reports exactly the findings EXPERIMENTS.md ("Wrong-result
//! oracles") records, in order, at the statement each was first found —
//! one of them the shipped `toString(42)` provenance quirk, which only the
//! literal-unfolded form of the multi-form oracle can see. Checked at 1 and
//! 2 workers, so the oracle's verdicts are also pinned worker-invariant.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};
use soft_repro::soft::OracleConfig;

/// `(fault id, statements until found)` of the 3,000-statement run.
const EXPECTED: &[(&str, usize)] = &[
    ("logic-multiform-tostring", 473),
    ("clickhouse-array-npd-p2_3-1", 785),
    ("clickhouse-date-npd-p1_2-2", 1250),
    ("clickhouse-aggregate-npd-p1_2-0", 1740),
];

#[test]
fn oracles_on_campaign_reports_the_documented_findings() {
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: 3_000,
        per_seed_cap: 64,
        oracles: OracleConfig::on(),
        ..CampaignConfig::default()
    };
    for workers in [1usize, 2] {
        let report = run_soft_parallel(&profile, &cfg, workers);
        let mut found: Vec<(&str, usize)> = report
            .findings
            .iter()
            .map(|f| (f.fault_id.as_str(), f.statements_until_found))
            .collect();
        found.sort_by_key(|&(_, at)| at);
        assert_eq!(found, EXPECTED, "{workers} worker(s)");
    }
}
