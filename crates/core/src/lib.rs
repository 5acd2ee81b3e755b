//! The DeRemer–Pennello LALR(1) look-ahead computation.
//!
//! This crate is the reproduction of the paper's contribution. Given a
//! grammar and its LR(0) automaton it computes, for every reduction point
//! `(q, A → ω)`, the LALR(1) look-ahead set
//!
//! ```text
//! LA(q, A → ω) = { t : S ⇒+ α A t z  and  α ω accesses q }
//! ```
//!
//! via the paper's four relations and two runs of the Digraph algorithm:
//!
//! 1. `DR(p, A)` — terminals readable directly after the transition
//!    ([`Relations`]).
//! 2. `Read = Digraph(reads, DR)` where `(p,A) reads (r,C)` iff
//!    `p --A--> r --C-->` and `C` nullable.
//! 3. `Follow = Digraph(includes, Read)` where `(p,A) includes (p',B)` iff
//!    `B → β A γ`, `γ ⇒* ε`, `p' --β--> p`.
//! 4. `LA(q, A→ω) = ⋃ { Follow(p,A) : (q, A→ω) lookback (p,A) }`.
//!
//! The entry point is [`LalrAnalysis::compute`]. Baselines reproduced for
//! the paper's evaluation: [`slr_lookaheads`] (SLR(1)), [`NqlalrAnalysis`]
//! (the unsound "not quite LALR" shortcut the paper warns about),
//! [`propagation_lookaheads`] (the yacc/ASU spontaneous-and-propagate
//! technique) and, over in `lalr-automata`, canonical-LR(1)-then-merge.
//!
//! # Examples
//!
//! ```
//! use lalr_automata::Lr0Automaton;
//! use lalr_core::LalrAnalysis;
//! use lalr_grammar::parse_grammar;
//!
//! let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;")?;
//! let lr0 = Lr0Automaton::build(&g);
//! let lalr = LalrAnalysis::compute(&g, &lr0);
//! assert!(lalr.conflicts(&g, &lr0).is_empty()); // the grammar is LALR(1)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod conflicts;
mod engine;
mod explain;
mod lookahead;
mod lr1walk;
mod nqlalr;
mod parallel;
mod propagation;
mod relations;
mod selective;
mod slr;

pub use classify::{classify, classify_from, classify_recorded, GrammarClass, MethodAdequacy};
pub use conflicts::{find_conflicts, Conflict, ConflictKind};
pub use engine::LalrAnalysis;
pub use explain::{explain_conflict, viable_prefix};
pub use lalr_digraph::DigraphStats;
pub use lookahead::LookaheadSets;
pub use nqlalr::NqlalrAnalysis;
pub use parallel::Parallelism;
pub use propagation::{propagation_lookaheads, propagation_recorded};
pub use relations::{RelationStats, Relations};
pub use selective::{inadequate_states, selective_lookaheads, SelectiveAnalysis};
pub use slr::slr_lookaheads;
