//! The LR(1) part of classification is observable: `classify.lr1_states`
//! counts the canonical LR(1) states the conflict walk visits and
//! `classify.lr1_cores` the LR(0) cores it closes. The walk visits
//! nothing when the LALR(1) analysis has no conflicts, and otherwise
//! stays inside the cores that reach an LALR conflict — strictly fewer
//! states than the canonical machine has.

use lalr_automata::{Lr0Automaton, Lr1Automaton};
use lalr_core::{classify_recorded, LalrAnalysis, MethodAdequacy};
use lalr_grammar::Grammar;
use lalr_obs::CollectingRecorder;
use lalr_service::{CompiledArtifact, GrammarFormat};

/// Classifies under a collecting recorder; returns the adequacy and the
/// `(lr1_states, lr1_cores)` counters.
fn classify_counted(grammar: &Grammar) -> (MethodAdequacy, u64, u64) {
    let lr0 = Lr0Automaton::build(grammar);
    let analysis = LalrAnalysis::compute(grammar, &lr0);
    let rec = CollectingRecorder::new();
    let m = classify_recorded(grammar, &lr0, &analysis, &rec);
    (
        m,
        rec.counter("classify.lr1_states"),
        rec.counter("classify.lr1_cores"),
    )
}

#[test]
fn lalr_conflict_free_corpus_grammars_visit_no_lr1_state() {
    let mut free = 0;
    for entry in lalr_corpus::all_entries() {
        let (m, states, cores) = classify_counted(&entry.grammar());
        if m.lalr_conflicts == 0 {
            free += 1;
            assert_eq!((states, cores), (0, 0), "{}", entry.name);
        } else {
            assert!(states > 0 && cores > 0, "{}", entry.name);
        }
    }
    assert!(free > 0);
}

#[test]
fn served_expr_ladder_512_visits_no_lr1_state() {
    let text = lalr_corpus::synthetic::expr_ladder(512).to_string();
    let rec = CollectingRecorder::new();
    let artifact = CompiledArtifact::compile_recorded(&text, GrammarFormat::Native, 0, &rec)
        .expect("expr_ladder(512) compiles");
    assert_eq!(artifact.adequacy().lalr_conflicts, 0);
    assert_eq!(rec.counter("classify.lr1_states"), 0);
    assert_eq!(rec.counter("classify.lr1_cores"), 0);
}

#[test]
fn conflicted_corpus_grammars_visit_fewer_states_than_the_canonical_machine() {
    for name in ["c_subset", "lua_subset"] {
        let g = lalr_corpus::by_name(name).expect("corpus entry").grammar();
        let (m, states, cores) = classify_counted(&g);
        assert!(m.lalr_conflicts > 0, "{name} exercises the walk");
        let canonical = Lr1Automaton::build(&g).state_count() as u64;
        assert!(
            states > 0 && states < canonical,
            "{name}: walk visited {states} of {canonical} canonical states"
        );
        let lr0_states = Lr0Automaton::build(&g).state_count() as u64;
        assert!(cores > 0 && cores <= lr0_states, "{name}: {cores} cores");
    }
}
