//! LR automata over [`lalr_grammar::Grammar`].
//!
//! Three constructions live here:
//!
//! * [`Lr0Automaton`] — the canonical LR(0) collection, the machine the
//!   DeRemer–Pennello algorithm computes look-aheads *on*. States expose
//!   kernels, closures, transitions (with an index of **nonterminal
//!   transitions**, the domain of the paper's relations) and reductions.
//! * [`Lr1Automaton`] — the canonical LR(1) collection (Knuth), the
//!   expensive baseline the paper's empirical section compares against,
//!   and the test oracle for LR(1) conflict counts.
//! * [`merge_lr1`] — LALR(1) by merging same-core LR(1) states, giving the
//!   reference LALR look-ahead sets our implementation is validated against.
//!
//! # Examples
//!
//! ```
//! use lalr_automata::Lr0Automaton;
//! use lalr_grammar::parse_grammar;
//!
//! let g = parse_grammar("s : \"a\" s | \"b\" ;")?;
//! let lr0 = Lr0Automaton::build(&g);
//! assert_eq!(lr0.state_count(), 5);
//! assert_eq!(lr0.nt_transitions().len(), 2); // on `s` from state 0 and from "a·s"
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod item;
mod lr0;
mod lr1;
mod merge;
mod reduction;

pub use item::{item_set_clone_count, ClosureScratch, Item, ItemSet};
pub use lr0::{Lr0Automaton, NtTransId, StateId};
pub use lr1::{closure1, Lr1Automaton, Lr1State};
pub use merge::{merge_lr1, MergedLalr};
pub use reduction::{ReductionId, ReductionIndex};
