//! PoC minimisation: shrink a crashing statement while preserving the crash
//! signature.
//!
//! The paper's harness "logs the corresponding SQL statements for bug
//! reporting" (§7.1); in practice reported PoCs are minimised first (the
//! listings in §7.4 are all one-liners). This reducer applies
//! crash-preserving simplifications until a fixpoint:
//!
//! 1. drop statement clauses (ORDER BY, LIMIT, WHERE, projections),
//! 2. replace function arguments with simpler literals,
//! 3. unwrap nested function calls and casts,
//! 4. shorten long string literals and digit runs.
//!
//! Every accepted reduction is validated twice: once on the mutated AST
//! (the fast path) and once on its *rendering*, re-entered through the
//! string path. The minimised PoC is shipped as text — `repro replay`
//! re-parses it — so a candidate whose rendering drifts from its AST
//! (however the renderer evolves) must not be accepted on AST evidence
//! alone.

use crate::oracle::{self, LogicBug};
use soft_engine::{Engine, ExecOutcome};
use soft_parser::ast::{Expr, Literal, SelectItem, Statement};
use soft_parser::visit;

/// Returns the fault id the statement crashes with, if any.
fn crash_id(engine: &mut Engine, sql: &str) -> Option<String> {
    match engine.execute(sql) {
        ExecOutcome::Crash(c) => {
            engine.reset_database();
            Some(c.fault_id)
        }
        _ => None,
    }
}

/// Returns the fault id an already-parsed candidate crashes with, if any —
/// the reduction loop's hot path, which executes the AST directly and never
/// touches the lexer. Safe to skip the engine's statement-length gate: every
/// candidate is strictly shorter than the (gate-passing) PoC it shrinks.
fn crash_id_parsed(engine: &mut Engine, stmt: &Statement) -> Option<String> {
    let prepared = engine.prepare_parsed(stmt.clone());
    match engine.execute_prepared(&prepared) {
        ExecOutcome::Crash(c) => Some(c.fault_id),
        _ => None,
    }
}

/// Minimises `poc` against a fresh-engine factory, preserving its fault id.
///
/// `make_engine` must produce an engine with any prerequisite state already
/// loaded (the reducer resets/rebuilds via the factory between attempts).
///
/// # Examples
///
/// ```
/// use soft_dialects::{DialectId, DialectProfile};
/// let profile = DialectProfile::build(DialectId::Postgres);
/// let witness = profile.faults[0].witness.clone();
/// let minimized = soft_core::minimize::minimize(&witness, || profile.engine());
/// assert!(minimized.len() <= witness.len());
/// ```
pub fn minimize(poc: &str, mut make_engine: impl FnMut() -> Engine) -> String {
    let Ok(stmt) = soft_parser::parse_statement(poc) else {
        return poc.to_string();
    };
    let mut engine = make_engine();
    let Some(target) = crash_id(&mut engine, poc) else {
        return poc.to_string();
    };
    let mut best = stmt;
    let mut best_len = best.to_string().len();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 8 {
        changed = false;
        rounds += 1;
        for candidate in simplifications(&best) {
            let rendered = candidate.to_string();
            if rendered.len() >= best_len {
                continue;
            }
            // Fast path first: execute the mutated AST directly. Only if
            // the AST still crashes right do we pay the render → re-lex
            // round trip that proves the *shipped text* crashes right too.
            let mut engine = make_engine();
            if crash_id_parsed(&mut engine, &candidate).as_deref() != Some(&target) {
                continue;
            }
            let mut engine = make_engine();
            if crash_id(&mut engine, &rendered).as_deref() == Some(&target) {
                best_len = rendered.len();
                best = candidate;
                changed = true;
            }
        }
    }
    best.to_string()
}

/// Minimises a wrong-result PoC flagged by the multi-form oracle,
/// preserving the oracle's verdict: a reduction is accepted only while
/// [`oracle::multi_form_check`], run on the parse of the candidate's
/// *rendering*, still reports a divergence. Inputs the oracle does not
/// currently flag come back unchanged.
///
/// `make_engine` must produce the campaign's template engine (seed state
/// loaded); the oracle clones it per form, so one template serves the whole
/// reduction.
pub fn minimize_logic(poc: &str, mut make_engine: impl FnMut() -> Engine) -> String {
    let Ok(stmt) = soft_parser::parse_statement(poc) else {
        return poc.to_string();
    };
    let template = make_engine();
    let flags = |sql: &str, stmt: &Statement| -> Option<LogicBug> {
        oracle::multi_form_check(&template, sql, stmt)
    };
    if flags(poc, &stmt).is_none() {
        return poc.to_string();
    }
    let mut best = stmt;
    let mut best_len = best.to_string().len();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 8 {
        changed = false;
        rounds += 1;
        for candidate in simplifications(&best) {
            let rendered = candidate.to_string();
            if rendered.len() >= best_len {
                continue;
            }
            // Judge the re-parsed rendering — the same text `repro replay`
            // will feed the oracle.
            let Ok(reparsed) = soft_parser::parse_statement(&rendered) else {
                continue;
            };
            if flags(&rendered, &reparsed).is_some() {
                best_len = rendered.len();
                best = candidate;
                changed = true;
            }
        }
    }
    best.to_string()
}

/// One-step syntactic simplifications of a statement.
fn simplifications(stmt: &Statement) -> Vec<Statement> {
    let mut out = Vec::new();
    // Clause dropping.
    if let Statement::Select(sel) = stmt {
        if !sel.order_by.is_empty() || sel.limit.is_some() {
            let mut s = sel.clone();
            s.order_by.clear();
            s.limit = None;
            out.push(Statement::Select(s));
        }
        if let soft_parser::ast::SelectBody::Query(q) = &sel.body {
            if q.where_clause.is_some() || q.having.is_some() || !q.group_by.is_empty() {
                let mut s = sel.clone();
                if let soft_parser::ast::SelectBody::Query(q) = &mut s.body {
                    q.where_clause = None;
                    q.having = None;
                    q.group_by.clear();
                }
                out.push(Statement::Select(s));
            }
            if q.items.len() > 1 {
                for keep in 0..q.items.len() {
                    if matches!(q.items[keep], SelectItem::Wildcard) {
                        continue;
                    }
                    let mut s = sel.clone();
                    if let soft_parser::ast::SelectBody::Query(q2) = &mut s.body {
                        let item = q2.items[keep].clone();
                        q2.items = vec![item];
                    }
                    out.push(Statement::Select(s));
                }
            }
        }
    }
    // Expression-level simplifications, one site at a time.
    let n_funcs = visit::count_function_exprs(stmt);
    for fi in 0..n_funcs {
        // Unwrap: replace f(...) by its first argument.
        let mut s = stmt.clone();
        let mut unwrapped = None;
        visit::replace_function_expr(&mut s, fi, |orig| {
            unwrapped = orig.args.first().cloned();
            match &unwrapped {
                Some(a) => a.clone(),
                None => Expr::Function(orig.clone()),
            }
        });
        if unwrapped.is_some() {
            out.push(s);
        }
        // Argument simplification.
        let arity = {
            let mut a = 0;
            let mut seen = 0;
            visit::visit_exprs(stmt, &mut |e| {
                if let Expr::Function(fx) = e {
                    if seen == fi {
                        a = fx.args.len();
                    }
                    seen += 1;
                }
            });
            a
        };
        for ai in 0..arity {
            for replacement in [Expr::number("1"), Expr::string("a"), Expr::null()] {
                let mut s = stmt.clone();
                let mut did = false;
                visit::replace_function_expr(&mut s, fi, |orig| {
                    let mut f = orig.clone();
                    if ai < f.args.len() && f.args[ai] != replacement {
                        f.args[ai] = replacement.clone();
                        did = true;
                    }
                    Expr::Function(f)
                });
                if did {
                    out.push(s);
                }
            }
            // Shorten string/number literals in place.
            let mut s = stmt.clone();
            let mut did = false;
            visit::replace_function_expr(&mut s, fi, |orig| {
                let mut f = orig.clone();
                if let Some(arg) = f.args.get_mut(ai) {
                    match arg {
                        Expr::Literal(Literal::String(v)) if v.len() > 8 => {
                            let half = v.chars().take(v.chars().count() / 2).collect::<String>();
                            *arg = Expr::string(&half);
                            did = true;
                        }
                        Expr::Literal(Literal::Number(v)) if v.len() > 8 => {
                            let half = v[..v.len() / 2].to_string();
                            if half.parse::<f64>().is_ok() {
                                *arg = Expr::number(&half);
                                did = true;
                            }
                        }
                        _ => {}
                    }
                }
                Expr::Function(f)
            });
            if did {
                out.push(s);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_dialects::{DialectId, DialectProfile};

    #[test]
    fn minimized_pocs_still_crash_with_the_same_fault() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        for fault in &profile.faults {
            let minimized = minimize(&fault.witness, || profile.engine());
            let mut engine = profile.engine();
            match engine.execute(&minimized) {
                ExecOutcome::Crash(c) => assert_eq!(
                    c.fault_id, fault.spec.id,
                    "minimised `{minimized}` drifted to another fault"
                ),
                other => panic!("minimised `{minimized}` no longer crashes: {other:?}"),
            }
            assert!(minimized.len() <= fault.witness.len());
        }
    }

    #[test]
    fn minimization_drops_irrelevant_clauses() {
        // Build an inflated PoC around a known witness and check the
        // reducer strips the noise.
        let profile = DialectProfile::build(DialectId::Postgres);
        let witness = &profile.faults[0].witness;
        let inner = witness.strip_prefix("SELECT ").expect("witness is a SELECT");
        let inflated = format!("SELECT {inner}, 'decoy', 12345 LIMIT 99");
        let minimized = minimize(&inflated, || profile.engine());
        assert!(!minimized.contains("decoy"), "{minimized}");
        assert!(!minimized.contains("LIMIT"), "{minimized}");
        assert!(minimized.len() < inflated.len());
    }

    #[test]
    fn logic_pocs_minimize_while_the_oracle_still_fires() {
        // toString(42) trips the shipped ClickHouse provenance quirk; the
        // reducer must strip the noise but never accept a candidate the
        // multi-form oracle stops flagging (toString(1), bare 42, …).
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let inflated = "SELECT toString(42), 'decoy', 12345 LIMIT 7";
        let minimized = minimize_logic(inflated, || profile.engine());
        assert!(!minimized.contains("decoy"), "{minimized}");
        assert!(!minimized.contains("LIMIT"), "{minimized}");
        assert!(minimized.contains("toString(42)"), "{minimized}");
        let stmt = soft_parser::parse_statement(&minimized).expect("parse");
        assert!(
            oracle::multi_form_check(&profile.engine(), &minimized, &stmt).is_some(),
            "minimised `{minimized}` no longer trips the oracle"
        );
    }

    #[test]
    fn unflagged_input_is_returned_unchanged_by_the_logic_reducer() {
        let profile = DialectProfile::build(DialectId::Postgres);
        let sql = "SELECT UPPER('abc')";
        assert_eq!(minimize_logic(sql, || profile.engine()), sql);
    }

    #[test]
    fn non_crashing_input_is_returned_unchanged() {
        let profile = DialectProfile::build(DialectId::Mysql);
        let sql = "SELECT UPPER('abc')";
        assert_eq!(minimize(sql, || profile.engine()), sql);
        let garbage = "not sql at all";
        assert_eq!(minimize(garbage, || profile.engine()), garbage);
    }
}
