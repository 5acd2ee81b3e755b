//! The canonical LR(1) collection (Knuth's construction).
//!
//! This is the expensive baseline of the paper's evaluation: it computes
//! exact LR(1) look-aheads by splitting states, at the cost of a much larger
//! automaton. It is an oracle only: merged by core it yields the reference
//! LALR(1) look-ahead sets (see [`crate::merge_lr1`]) and the LR(1)-merge
//! timing baseline, and tests count its conflicts to check the LR(1)
//! class that `lalr-core`'s classification computes without building it.

use rustc_hash::FxHashMap;

use lalr_bitset::BitSet;
use lalr_grammar::analysis::{nullable, FirstSets};
use lalr_grammar::{Grammar, ProdId, Symbol, Terminal};

use crate::item::Item;
use crate::lr0::StateId;

/// An LR(1) state: kernel items with their look-ahead sets, sorted by item.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lr1State {
    kernel: Vec<(Item, BitSet)>,
}

impl Lr1State {
    /// The kernel items with look-ahead sets.
    pub fn kernel(&self) -> &[(Item, BitSet)] {
        &self.kernel
    }

    /// The LR(0) core of this state (kernel items without look-aheads).
    pub fn core(&self) -> crate::item::ItemSet {
        self.kernel.iter().map(|&(i, _)| i).collect()
    }
}

/// The canonical LR(1) automaton.
///
/// # Examples
///
/// ```
/// use lalr_automata::{Lr0Automaton, Lr1Automaton};
/// use lalr_grammar::parse_grammar;
///
/// // The canonical machine splits states the LR(0) machine shares.
/// let g = parse_grammar(
///     "s : \"u\" a \"d\" | \"v\" a \"e\" ; a : \"c\" ;",
/// )?;
/// let lr1 = Lr1Automaton::build(&g);
/// let lr0 = Lr0Automaton::build(&g);
/// assert!(lr1.state_count() > lr0.state_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lr1Automaton {
    states: Vec<Lr1State>,
    transitions: Vec<Vec<(Symbol, StateId)>>,
    /// Reductions per state: `(production, look-ahead set)`.
    reductions: Vec<Vec<(ProdId, BitSet)>>,
}

impl Lr1Automaton {
    /// Builds the canonical LR(1) collection.
    pub fn build(grammar: &Grammar) -> Lr1Automaton {
        let nullable = nullable(grammar);
        let first = FirstSets::compute(grammar, &nullable);
        let n_terms = grammar.terminal_count();

        let mut eof_only = BitSet::new(n_terms);
        eof_only.insert(Terminal::EOF.index());
        let start = Lr1State {
            kernel: vec![(Item::start_of(ProdId::START), eof_only)],
        };

        let mut states: Vec<Lr1State> = Vec::new();
        let mut transitions: Vec<Vec<(Symbol, StateId)>> = Vec::new();
        let mut reductions: Vec<Vec<(ProdId, BitSet)>> = Vec::new();
        let mut interned: FxHashMap<Vec<(Item, BitSet)>, StateId> = FxHashMap::default();
        let mut work: Vec<StateId> = Vec::new();

        let mut intern = |state: Lr1State,
                          states: &mut Vec<Lr1State>,
                          transitions: &mut Vec<Vec<(Symbol, StateId)>>,
                          reductions: &mut Vec<Vec<(ProdId, BitSet)>>,
                          work: &mut Vec<StateId>|
         -> StateId {
            if let Some(&id) = interned.get(&state.kernel) {
                return id;
            }
            let id = StateId::new(states.len());
            interned.insert(state.kernel.clone(), id);
            states.push(state);
            transitions.push(Vec::new());
            reductions.push(Vec::new());
            work.push(id);
            id
        };

        intern(
            start,
            &mut states,
            &mut transitions,
            &mut reductions,
            &mut work,
        );

        while let Some(sid) = work.pop() {
            let closed = closure1(grammar, &first, &states[sid.index()].kernel, n_terms);

            // Partition: final items become reductions, others group by the
            // next symbol into GOTO kernels.
            let mut red: Vec<(ProdId, BitSet)> = Vec::new();
            let mut order: Vec<Symbol> = Vec::new();
            let mut buckets: FxHashMap<Symbol, Vec<(Item, BitSet)>> = FxHashMap::default();
            for (item, la) in closed {
                match item.next_symbol(grammar) {
                    None => red.push((item.production(), la)),
                    Some(sym) => {
                        let b = buckets.entry(sym).or_insert_with(|| {
                            order.push(sym);
                            Vec::new()
                        });
                        b.push((item.advanced(), la));
                    }
                }
            }
            red.sort_unstable_by_key(|&(p, _)| p);
            reductions[sid.index()] = red;

            let mut ts: Vec<(Symbol, StateId)> = Vec::with_capacity(order.len());
            for sym in order {
                let mut kernel = buckets.remove(&sym).expect("bucket exists");
                kernel.sort_unstable_by_key(|&(i, _)| i);
                let target = intern(
                    Lr1State { kernel },
                    &mut states,
                    &mut transitions,
                    &mut reductions,
                    &mut work,
                );
                ts.push((sym, target));
            }
            ts.sort_unstable_by_key(|&(sym, _)| sym);
            transitions[sid.index()] = ts;
        }

        Lr1Automaton {
            states,
            transitions,
            reductions,
        }
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// A state by id.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn state(&self, state: StateId) -> &Lr1State {
        &self.states[state.index()]
    }

    /// `GOTO(state, symbol)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn transition(&self, state: StateId, sym: Symbol) -> Option<StateId> {
        let ts = &self.transitions[state.index()];
        ts.binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|i| ts[i].1)
    }

    /// All outgoing transitions of `state`, sorted by symbol.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn transitions(&self, state: StateId) -> &[(Symbol, StateId)] {
        &self.transitions[state.index()]
    }

    /// The reductions available in `state`: `(production, LA set)`, sorted
    /// by production.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn reductions(&self, state: StateId) -> &[(ProdId, BitSet)] {
        &self.reductions[state.index()]
    }
}

/// LR(1) closure of a kernel: returns the closed item → look-ahead map as
/// a vec sorted by item.
///
/// For each `[A → α · B γ, L]`, every production of `B` enters with
/// look-ahead `FIRST(γ)`, plus `L` when `γ` is nullable. Public because the
/// yacc-style propagation baseline in `lalr-core` needs the same closure to
/// recover look-aheads of non-kernel ε-reductions.
pub fn closure1(
    grammar: &Grammar,
    first: &FirstSets,
    kernel: &[(Item, BitSet)],
    n_terms: usize,
) -> Vec<(Item, BitSet)> {
    let mut las: FxHashMap<Item, BitSet> = FxHashMap::default();
    let mut work: Vec<Item> = Vec::new();
    for (item, la) in kernel {
        las.insert(*item, la.clone());
        work.push(*item);
    }
    while let Some(item) = work.pop() {
        let Some(Symbol::NonTerminal(b)) = item.next_symbol(grammar) else {
            continue;
        };
        let gamma = item.tail_after_next(grammar);
        // FIRST is computed over the real alphabet; widen to n_terms so the
        // propagation baseline's extra dummy column fits.
        let (first_set, gamma_nullable) = first.first_of(gamma);
        let mut look = BitSet::new(n_terms);
        look.extend(first_set.iter());
        if gamma_nullable {
            look.union_with(&las[&item]);
        }
        for &pid in grammar.productions_of(b) {
            let fresh = Item::start_of(pid);
            match las.get_mut(&fresh) {
                Some(existing) => {
                    if existing.union_with(&look) {
                        work.push(fresh);
                    }
                }
                None => {
                    // `look` is already n_terms wide; cloning it skips
                    // the zero-row union pass.
                    las.insert(fresh, look.clone());
                    work.push(fresh);
                }
            }
        }
    }
    let mut out: Vec<(Item, BitSet)> = las.into_iter().collect();
    out.sort_unstable_by_key(|&(i, _)| i);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_grammar::parse_grammar;

    fn la_names(g: &Grammar, set: &BitSet) -> Vec<String> {
        set.iter()
            .map(|i| g.terminal_name(Terminal::new(i)).to_string())
            .collect()
    }

    #[test]
    fn accept_reduction_has_eof_lookahead() {
        let g = parse_grammar("s : \"a\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        let acc = lr1
            .transition(StateId::START, Symbol::NonTerminal(g.start()))
            .unwrap();
        let red = lr1.reductions(acc);
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].0, ProdId::START);
        assert_eq!(la_names(&g, &red[0].1), vec!["$"]);
    }

    #[test]
    fn knuth_splitting_example() {
        // After "a c" the reduction a → c has LA {d}; after "b c" it has
        // LA {e}. Canonical LR(1) keeps those two states apart.
        let g = parse_grammar("s : \"u\" a \"d\" | \"v\" a \"e\" ; a : \"c\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        let u = g.terminal_by_name("u").unwrap();
        let v = g.terminal_by_name("v").unwrap();
        let c = g.terminal_by_name("c").unwrap();
        let s_a = lr1.transition(StateId::START, u.into()).unwrap();
        let s_b = lr1.transition(StateId::START, v.into()).unwrap();
        let s_ac = lr1.transition(s_a, c.into()).unwrap();
        let s_bc = lr1.transition(s_b, c.into()).unwrap();
        assert_ne!(s_ac, s_bc);
        assert_eq!(la_names(&g, &lr1.reductions(s_ac)[0].1), vec!["d"]);
        assert_eq!(la_names(&g, &lr1.reductions(s_bc)[0].1), vec!["e"]);
    }

    #[test]
    fn lookaheads_flow_through_nullable_tails() {
        // In s → a tail, tail nullable: LA(a → x) ⊇ {$} ∪ FIRST(tail).
        let g = parse_grammar("s : a tail ; tail : \"t\" | ; a : \"x\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        let x = g.terminal_by_name("x").unwrap();
        let after_x = lr1.transition(StateId::START, x.into()).unwrap();
        let red = lr1.reductions(after_x);
        assert_eq!(red.len(), 1);
        assert_eq!(la_names(&g, &red[0].1), vec!["$", "t"]);
    }

    #[test]
    fn closure_loops_converge_on_recursive_grammars() {
        let g = parse_grammar("e : e \"+\" e | \"x\" ;").unwrap();
        let lr1 = Lr1Automaton::build(&g);
        assert!(lr1.state_count() > 0);
        // Every reduction LA in the whole machine is non-empty.
        for s in lr1.states() {
            for (_, la) in lr1.reductions(s) {
                assert!(!la.is_empty());
            }
        }
    }
}
