//! The observability contract: two recorded runs of the pipeline on the
//! same grammar report *identical* counter values and span call counts,
//! and recording never changes what runs. Timings are explicitly
//! excluded — they are the only nondeterministic part of a
//! [`lalr_obs::PhaseReport`].

use lalr_automata::Lr0Automaton;
use lalr_core::{LalrAnalysis, Relations};
use lalr_corpus::synthetic;
use lalr_digraph::digraph_counting;
use lalr_grammar::Grammar;
use lalr_obs::{CollectingRecorder, PhaseReport};

/// Everything deterministic in a report: counters, and (name, calls)
/// per phase bucket.
fn fingerprint(report: &PhaseReport) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = report
        .counters
        .iter()
        .map(|&(k, v)| (format!("counter:{k}"), v))
        .collect();
    out.extend(
        report
            .phases
            .iter()
            .map(|p| (format!("phase:{}", p.name), p.calls)),
    );
    out.extend(
        report
            .nested
            .iter()
            .map(|p| (format!("nested:{}", p.name), p.calls)),
    );
    out
}

fn recorded_run(src: &str) -> PhaseReport {
    let grammar = lalr_grammar::parse_grammar(src).unwrap();
    let rec = CollectingRecorder::new();
    let lr0 = Lr0Automaton::build_recorded(&grammar, &rec);
    let analysis = LalrAnalysis::compute_recorded(&grammar, &lr0, &rec);
    assert!(analysis.lookaheads().reduction_count() > 0);
    rec.report()
}

#[test]
fn two_recorded_runs_report_identical_counters() {
    for entry in lalr_corpus::all_entries() {
        let a = recorded_run(entry.source);
        let b = recorded_run(entry.source);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "nondeterministic counters on {}",
            entry.name
        );
        assert!(
            a.counter("lr0.states").unwrap_or(0) > 0,
            "{}: lr0 counters must be populated",
            entry.name
        );
        assert!(
            a.phase("digraph.reads").is_some() && a.phase("digraph.includes").is_some(),
            "{}: both traversal phases must be spanned",
            entry.name
        );
    }
}

/// Every corpus grammar plus one member of each synthetic family the
/// scaling benchmark stresses.
fn grammars() -> Vec<(String, Grammar)> {
    let mut out: Vec<(String, Grammar)> = lalr_corpus::all_entries()
        .into_iter()
        .map(|e| (e.name.to_string(), e.grammar()))
        .collect();
    out.push(("expr_ladder(64)".into(), synthetic::expr_ladder(64)));
    out.push(("wide_forest(64)".into(), synthetic::wide_forest(64)));
    out.push(("includes_scc(64)".into(), synthetic::includes_scc(64)));
    out.push(("nullable_blocks(64)".into(), synthetic::nullable_blocks(64)));
    out
}

#[test]
fn recorded_pipeline_matches_unrecorded_results() {
    // Recording must be observation only: the look-ahead sets computed
    // under a collecting recorder are identical to the plain pipeline's,
    // and the OR operations it reports are exactly the unions the plain
    // Digraph traversal performs over the same relations.
    for (name, grammar) in grammars() {
        let rec = CollectingRecorder::new();
        let lr0 = Lr0Automaton::build_recorded(&grammar, &rec);
        let recorded = LalrAnalysis::compute_recorded(&grammar, &lr0, &rec);
        let plain = LalrAnalysis::compute(&grammar, &lr0);
        assert_eq!(
            recorded.lookaheads(),
            plain.lookaheads(),
            "recording changed the result on {name}"
        );

        let relations = Relations::build(&grammar, &lr0);
        let mut read = relations.dr().clone();
        let (_, reads) = digraph_counting(relations.reads(), &mut read);
        let mut follow = read;
        let (_, includes) = digraph_counting(relations.includes(), &mut follow);
        let report = rec.report();
        assert_eq!(
            report.counter("digraph.reads.or_ops"),
            Some(reads.unions),
            "{name}: reads OR operations"
        );
        assert_eq!(
            report.counter("digraph.includes.or_ops"),
            Some(includes.unions),
            "{name}: includes OR operations"
        );
    }
}
