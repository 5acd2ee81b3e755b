//! `classify` counts the canonical LR(1) machine's conflicts without
//! building it (an exact walk over LR(0) cores, pruned to the cores that
//! reach an LALR conflict). This differential pins that count, and the
//! class derived from it, against a count taken over the canonical
//! machine itself: on the whole corpus, the synthetic scaling families
//! and seeded random grammars from three configurations.

use lalr_automata::Lr1Automaton;
use lalr_core::{classify, GrammarClass, MethodAdequacy};
use lalr_corpus::synthetic::{self, random, RandomConfig};
use lalr_grammar::Grammar;

/// Conflicts of the canonical LR(1) machine: per state, each reduction's
/// look-aheads that are also shifted, plus each pairwise overlap of two
/// reductions' look-aheads.
fn lr1_conflicts(lr1: &Lr1Automaton) -> usize {
    let mut count = 0;
    for state in lr1.states() {
        let shifts: Vec<usize> = lr1
            .transitions(state)
            .iter()
            .filter_map(|&(s, _)| s.terminal().map(|t| t.index()))
            .collect();
        let reds = lr1.reductions(state);
        for (_, la) in reds {
            count += shifts.iter().filter(|&&t| la.contains(t)).count();
        }
        for (i, (_, la1)) in reds.iter().enumerate() {
            for (_, la2) in &reds[i + 1..] {
                count += (la1 & la2).count();
            }
        }
    }
    count
}

/// The class the adequacy hierarchy assigns from the four counts.
fn class_of(m: &MethodAdequacy, lr1_conflicts: usize) -> GrammarClass {
    if m.lr0_conflicts == 0 {
        GrammarClass::Lr0
    } else if m.slr_conflicts == 0 {
        GrammarClass::Slr1
    } else if m.lalr_conflicts == 0 {
        GrammarClass::Lalr1
    } else if lr1_conflicts == 0 {
        GrammarClass::Lr1
    } else {
        GrammarClass::NotLr1
    }
}

/// Checks one grammar; returns whether it has LALR conflicts.
#[track_caller]
fn assert_matches_oracle(name: &str, grammar: &Grammar) -> bool {
    let got = classify(grammar);
    let want = lr1_conflicts(&Lr1Automaton::build(grammar));
    assert_eq!(got.lr1_conflicts, want, "{name}: lr1_conflicts");
    assert_eq!(got.class, class_of(&got, want), "{name}: class");
    got.lalr_conflicts > 0
}

#[test]
fn corpus_grammars_match_the_canonical_machine() {
    let entries = lalr_corpus::all_entries();
    assert_eq!(entries.len(), 16);
    let conflicted = entries
        .iter()
        .filter(|e| assert_matches_oracle(e.name, &e.grammar()))
        .count();
    assert!(conflicted > 0, "the corpus exercises the walk");
}

#[test]
fn synthetic_families_match_the_canonical_machine() {
    for k in [8, 16, 32] {
        assert_matches_oracle(&format!("expr_ladder({k})"), &synthetic::expr_ladder(k));
        assert_matches_oracle(&format!("wide_forest({k})"), &synthetic::wide_forest(k));
        assert_matches_oracle(&format!("includes_scc({k})"), &synthetic::includes_scc(k));
        assert_matches_oracle(
            &format!("nullable_blocks({k})"),
            &synthetic::nullable_blocks(k),
        );
    }
}

#[test]
fn random_grammars_match_the_canonical_machine() {
    let configs = [
        ("default", RandomConfig::default()),
        (
            "eps-rich",
            RandomConfig {
                nonterminals: 12,
                terminals: 8,
                productions: 36,
                max_rhs: 5,
                epsilon_prob: 0.25,
            },
        ),
        // The benchmark's corpus-sized, ε-free random grammars.
        (
            "corpus-size",
            RandomConfig {
                nonterminals: 30,
                terminals: 20,
                productions: 90,
                max_rhs: 4,
                epsilon_prob: 0.0,
            },
        ),
    ];
    for (label, config) in configs {
        let conflicted = (0..50u64)
            .filter(|&seed| {
                assert_matches_oracle(&format!("{label} {seed}"), &random(seed, config))
            })
            .count();
        assert!(conflicted > 0, "{label}: no grammar exercises the walk");
    }
}
