//! Grammar-class classification (the adequacy hierarchy of Table 3).

use lalr_automata::Lr0Automaton;
use lalr_grammar::Grammar;

use crate::conflicts::find_conflicts;
use crate::engine::LalrAnalysis;
use crate::lookahead::LookaheadSets;
use crate::lr1walk::lr1_conflicts;
use crate::nqlalr::NqlalrAnalysis;
use crate::slr::slr_lookaheads;

/// The strongest class in `LR(0) ⊂ SLR(1) ⊂ LALR(1) ⊂ LR(1)` a grammar
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GrammarClass {
    /// Conflict-free with no look-ahead at all.
    Lr0,
    /// SLR(1) but not LR(0).
    Slr1,
    /// LALR(1) but not SLR(1).
    Lalr1,
    /// LR(1) but not LALR(1).
    Lr1,
    /// Not LR(1) (ambiguous, or needs k > 1, or not LR(k) at all).
    NotLr1,
}

impl std::fmt::Display for GrammarClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GrammarClass::Lr0 => "LR(0)",
            GrammarClass::Slr1 => "SLR(1)",
            GrammarClass::Lalr1 => "LALR(1)",
            GrammarClass::Lr1 => "LR(1)",
            GrammarClass::NotLr1 => "not LR(1)",
        };
        f.write_str(s)
    }
}

/// Conflict counts per method for one grammar — one row of Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodAdequacy {
    /// Conflicts with no look-ahead (LR(0) test).
    pub lr0_conflicts: usize,
    /// Conflicts under SLR(1) look-aheads.
    pub slr_conflicts: usize,
    /// Conflicts under NQLALR(1) look-aheads (may exceed LALR's — that gap
    /// is the unsoundness the paper warns about).
    pub nqlalr_conflicts: usize,
    /// Conflicts under true LALR(1) look-aheads.
    pub lalr_conflicts: usize,
    /// Conflicts in the canonical LR(1) machine (counted without building
    /// it).
    pub lr1_conflicts: usize,
    /// `reads`-cycle detected (grammar not LR(k) for any k).
    pub not_lr_k: bool,
    /// The resulting classification.
    pub class: GrammarClass,
}

/// An LR(0)-style look-ahead assignment: every reduction answers to the
/// full terminal alphabet (so any state with a reduction plus anything else
/// conflicts).
fn lr0_lookaheads(grammar: &Grammar, lr0: &Lr0Automaton) -> LookaheadSets {
    let mut las = LookaheadSets::for_automaton(lr0, grammar.terminal_count());
    let full = lalr_bitset::BitSet::full(grammar.terminal_count());
    for state in lr0.states() {
        for &prod in lr0.reductions(state) {
            las.union_into(state, prod, &full);
        }
    }
    las
}

/// Classifies a grammar by running all five methods.
///
/// The LR(1) count never builds the canonical LR(1) machine. With no
/// LALR(1) conflicts it is 0 by theorem; otherwise an exact walk over the
/// LR(0) cores visits only the canonical states whose cores reach an
/// LALR conflict, and counts their conflicts as the canonical machine
/// would.
///
/// # Examples
///
/// ```
/// use lalr_core::{classify, GrammarClass};
/// use lalr_grammar::parse_grammar;
///
/// let g = parse_grammar("s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;")?;
/// let adequacy = classify(&g);
/// assert_eq!(adequacy.class, GrammarClass::Lalr1);
/// assert!(adequacy.slr_conflicts > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn classify(grammar: &Grammar) -> MethodAdequacy {
    let lr0 = Lr0Automaton::build(grammar);
    let analysis = LalrAnalysis::compute(grammar, &lr0);
    classify_recorded(grammar, &lr0, &analysis, &lalr_obs::NULL)
}

/// Classifies from a prebuilt LR(0) automaton and DeRemer–Pennello
/// analysis, running only the remaining four methods (LR(0)/SLR/NQLALR
/// baselines and the pruned LR(1) conflict walk). This is what `lalr-service`
/// uses so a cached compile never recomputes the automaton or the
/// look-ahead sets; the counts equal [`classify`]'s.
///
/// The `&Parallelism` argument does nothing: classification runs on the
/// calling thread. It stays because the `perfbench` harness calls this
/// signature.
pub fn classify_from(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    analysis: &LalrAnalysis,
    _parallelism: &crate::Parallelism,
) -> MethodAdequacy {
    classify_recorded(grammar, lr0, analysis, &lalr_obs::NULL)
}

/// Recorded analogue of [`classify_from`]: each of the five methods runs
/// inside its own span (`classify.lr0`, `classify.slr`,
/// `classify.nqlalr`, `classify.lalr`, `classify.lr1`). The LR(1) walk
/// also counts the canonical LR(1) states it visits
/// (`classify.lr1_states`) and the LR(0) cores it closes
/// (`classify.lr1_cores`); both are 0 when there are no LALR conflicts.
pub fn classify_recorded(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    analysis: &LalrAnalysis,
    rec: &dyn lalr_obs::Recorder,
) -> MethodAdequacy {
    let lr0_c = {
        let _span = lalr_obs::span(rec, "classify.lr0");
        find_conflicts(grammar, lr0, &lr0_lookaheads(grammar, lr0)).len()
    };
    let slr_c = {
        let _span = lalr_obs::span(rec, "classify.slr");
        find_conflicts(grammar, lr0, &slr_lookaheads(grammar, lr0)).len()
    };
    let nq_c = {
        let _span = lalr_obs::span(rec, "classify.nqlalr");
        find_conflicts(
            grammar,
            lr0,
            NqlalrAnalysis::compute(grammar, lr0).lookaheads(),
        )
        .len()
    };
    let lalr = {
        let _span = lalr_obs::span(rec, "classify.lalr");
        analysis.conflicts(grammar, lr0)
    };
    let lalr_c = lalr.len();
    let lr1_c = {
        let _span = lalr_obs::span(rec, "classify.lr1");
        let walk = lr1_conflicts(grammar, lr0, &lalr);
        if rec.is_enabled() {
            rec.add("classify.lr1_states", walk.states as u64);
            rec.add("classify.lr1_cores", walk.cores as u64);
        }
        walk.conflicts
    };

    let class = if lr0_c == 0 {
        GrammarClass::Lr0
    } else if slr_c == 0 {
        GrammarClass::Slr1
    } else if lalr_c == 0 {
        GrammarClass::Lalr1
    } else if lr1_c == 0 {
        GrammarClass::Lr1
    } else {
        GrammarClass::NotLr1
    };

    MethodAdequacy {
        lr0_conflicts: lr0_c,
        slr_conflicts: slr_c,
        nqlalr_conflicts: nq_c,
        lalr_conflicts: lalr_c,
        lr1_conflicts: lr1_c,
        not_lr_k: analysis.grammar_not_lr_k(),
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_grammar::parse_grammar;

    fn class_of(src: &str) -> GrammarClass {
        classify(&parse_grammar(src).unwrap()).class
    }

    #[test]
    fn lr0_grammar() {
        // Every sentence ends in a distinct way; no look-ahead needed.
        assert_eq!(class_of("s : \"a\" s \"b\" | \"c\" ;"), GrammarClass::Lr0);
    }

    #[test]
    fn slr_grammar() {
        assert_eq!(
            class_of("e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"id\" ;"),
            GrammarClass::Slr1
        );
    }

    #[test]
    fn lalr_grammar() {
        assert_eq!(
            class_of("s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;"),
            GrammarClass::Lalr1
        );
    }

    #[test]
    fn lr1_but_not_lalr_grammar() {
        // The canonical example: merging the two `a → c` contexts creates a
        // reduce/reduce conflict that canonical LR(1) does not have.
        assert_eq!(
            class_of("s : \"u\" a \"d\" | \"v\" b \"d\" | \"u\" b \"e\" | \"v\" a \"e\" ; a : \"c\" ; b : \"c\" ;"),
            GrammarClass::Lr1
        );
    }

    #[test]
    fn ambiguous_grammar_is_not_lr1() {
        assert_eq!(class_of("e : e \"+\" e | \"x\" ;"), GrammarClass::NotLr1);
    }

    #[test]
    fn hierarchy_is_monotone() {
        // Conflicts can only shrink as the method gets stronger.
        for src in [
            "s : \"a\" s \"b\" | \"c\" ;",
            "e : e \"+\" t | t ; t : \"x\" ;",
            "s : l \"=\" r | r ; l : \"*\" r | \"id\" ; r : l ;",
            "e : e \"+\" e | \"x\" ;",
        ] {
            let m = classify(&parse_grammar(src).unwrap());
            assert!(m.slr_conflicts <= m.lr0_conflicts, "{src}");
            assert!(m.lalr_conflicts <= m.slr_conflicts, "{src}");
            // LR(1) splits states, so conflict *counts* may grow; what is
            // monotone is adequacy (conflict-freedom).
            assert!(m.lalr_conflicts > 0 || m.lr1_conflicts == 0, "{src}");
            assert!(m.nqlalr_conflicts >= m.lalr_conflicts, "{src}");
        }
    }

    #[test]
    fn class_display() {
        assert_eq!(GrammarClass::Lalr1.to_string(), "LALR(1)");
        assert_eq!(GrammarClass::NotLr1.to_string(), "not LR(1)");
    }
}
