//! The canonical LR(1) machine's conflict count, computed over LR(0)
//! cores without building the machine.
//!
//! A canonical LR(1) state is an LR(0) core plus one look-ahead set per
//! kernel item, and LR(1) closure is linear in those sets. Closing a core
//! once with one marker column per kernel item (the dummy-`#` trick of
//! [`crate::propagation_lookaheads`], one marker per item instead of one)
//! records, for every closure item, its spontaneous terminals and the
//! kernel items whose look-aheads flow into it; all items `B → · γ` share
//! one record per nonterminal `B`. A state's successors and reduction
//! look-aheads are then bitset unions over those records; no item-level
//! closure runs per LR(1) state.
//!
//! Two facts bound the walk. An LR(1) state's reduction look-aheads are
//! subsets of its core's LALR(1) ones and its shifts are the same, so a
//! state whose core has no LALR conflict has no LR(1) conflict either.
//! Hence with no LALR conflicts the count is 0 and nothing is visited;
//! otherwise only cores that reach an LALR-conflicted core over LR(0)
//! transitions are visited, because every other state counts 0 and so do
//! all of its successors.

use std::hash::{Hash, Hasher};

use lalr_automata::{Item, Lr0Automaton, StateId};
use lalr_bitset::{kernels, BitSet};
use lalr_grammar::analysis::{nullable, FirstSets};
use lalr_grammar::{Grammar, NonTerminal, ProdId, Symbol, Terminal};
use rustc_hash::{FxHashMap, FxHasher};

use crate::conflicts::Conflict;

const BITS: usize = usize::BITS as usize;

/// What one walk counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Lr1Walk {
    /// Conflicts of the canonical LR(1) machine.
    pub conflicts: usize,
    /// LR(1) states visited.
    pub states: usize,
    /// LR(0) cores closed.
    pub cores: usize,
}

/// Counts the conflicts of the canonical LR(1) machine, given the LALR(1)
/// conflicts of `lr0`: shift/reduce pairs plus reduce/reduce overlaps per
/// LR(1) state, the count a built canonical machine would give.
pub(crate) fn lr1_conflicts(
    grammar: &Grammar,
    lr0: &Lr0Automaton,
    lalr_conflicts: &[Conflict],
) -> Lr1Walk {
    if lalr_conflicts.is_empty() {
        return Lr1Walk::default();
    }
    let mut conflicted = BitSet::new(lr0.state_count());
    for c in lalr_conflicts {
        conflicted.insert(c.state.index());
    }
    let relevant = reaching(lr0, &conflicted);
    walk(grammar, lr0, &relevant, &conflicted)
}

/// The LR(0) states from which some state of `targets` is reachable
/// (each target reaches itself).
fn reaching(lr0: &Lr0Automaton, targets: &BitSet) -> BitSet {
    let n = lr0.state_count();
    // Predecessor lists in CSR form.
    let mut offsets = vec![0u32; n + 1];
    for s in lr0.states() {
        for &(_, to) in lr0.transitions(s) {
            offsets[to.index() + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets.clone();
    let mut preds = vec![0u32; offsets[n] as usize];
    for s in lr0.states() {
        for &(_, to) in lr0.transitions(s) {
            preds[fill[to.index()] as usize] = s.index() as u32;
            fill[to.index()] += 1;
        }
    }
    let mut seen = targets.clone();
    let mut work: Vec<usize> = targets.iter().collect();
    while let Some(s) = work.pop() {
        for &p in &preds[offsets[s] as usize..offsets[s + 1] as usize] {
            if seen.insert(p as usize) {
                work.push(p as usize);
            }
        }
    }
    seen
}

/// FIRST of every item's tail, computed once per walk: for the item
/// `A → α · X δ`, the terminals of `FIRST(δ)` as a `w`-word row and
/// whether `δ` is nullable.
struct Tails {
    w: usize,
    /// Position of each production's dot-0 item.
    offset: Vec<usize>,
    first: Vec<usize>,
    nullable: BitSet,
}

impl Tails {
    fn new(grammar: &Grammar, w: usize) -> Tails {
        let nullable_set = nullable(grammar);
        let first_sets = FirstSets::compute(grammar, &nullable_set);
        let mut nt_first = vec![0usize; grammar.nonterminal_count() * w];
        for n in grammar.nonterminals() {
            for t in first_sets.iter(n) {
                set_bit(&mut nt_first[n.index() * w..], t.index());
            }
        }
        let mut offset = Vec::with_capacity(grammar.production_count());
        let mut positions = 0;
        for p in grammar.productions() {
            offset.push(positions);
            positions += p.rhs().len();
        }
        let mut first = vec![0usize; positions * w];
        let mut nullable = BitSet::new(positions);
        // Fold each right-hand side from the end: `acc` is FIRST of the
        // suffix after position `i`.
        let mut acc = vec![0usize; w];
        for (p, &off) in grammar.productions().iter().zip(&offset) {
            acc.fill(0);
            let mut acc_nullable = true;
            for (i, &sym) in p.rhs().iter().enumerate().rev() {
                first[(off + i) * w..(off + i + 1) * w].copy_from_slice(&acc);
                if acc_nullable {
                    nullable.insert(off + i);
                }
                match sym {
                    Symbol::Terminal(t) => {
                        acc.fill(0);
                        set_bit(&mut acc, t.index());
                        acc_nullable = false;
                    }
                    Symbol::NonTerminal(n) => {
                        let row = &nt_first[n.index() * w..(n.index() + 1) * w];
                        if nullable_set.contains(n) {
                            kernels::or_assign(&mut acc, row);
                        } else {
                            acc.copy_from_slice(row);
                            acc_nullable = false;
                        }
                    }
                }
            }
        }
        Tails {
            w,
            offset,
            first,
            nullable,
        }
    }

    fn pos(&self, item: Item) -> usize {
        self.offset[item.production().index()] + item.dot()
    }

    /// `FIRST(δ)` of the non-final item `A → α · X δ`.
    fn first(&self, item: Item) -> &[usize] {
        let pos = self.pos(item);
        &self.first[pos * self.w..(pos + 1) * self.w]
    }

    /// Whether `δ` of the non-final item `A → α · X δ` is nullable.
    fn nullable(&self, item: Item) -> bool {
        self.nullable.contains(self.pos(item))
    }
}

fn set_bit(words: &mut [usize], bit: usize) {
    words[bit / BITS] |= 1 << (bit % BITS);
}

/// Buffers reused across [`Core::close`] calls.
struct CloseScratch {
    /// Closure nonterminal → its slot in `nts`, or `NONE`.
    slot: Vec<u32>,
    nts: Vec<NonTerminal>,
    rows: Vec<usize>,
    work: Vec<u32>,
    row: Vec<usize>,
}

impl CloseScratch {
    const NONE: u32 = u32::MAX;

    fn add(&mut self, nt: NonTerminal) {
        if self.slot[nt.index()] == Self::NONE {
            self.slot[nt.index()] = self.nts.len() as u32;
            self.nts.push(nt);
        }
    }
}

/// One LR(0) core closed with a marker column per kernel item. Its
/// records are the kernel items (record `j` carries kernel look-ahead
/// `j` unchanged) followed by one per closure nonterminal `B`, shared by
/// every item `B → · γ`. Rows are `w` words over the terminal alphabet.
struct Core {
    /// Kernel size: an LR(1) state of this core holds this many rows.
    kernel: usize,
    /// Spontaneous terminals of record `r`: `spont[r*w..(r+1)*w]`.
    spont: Vec<usize>,
    /// Kernel items whose look-aheads flow into record `r`:
    /// `marks[mark_off[r]..mark_off[r + 1]]`.
    marks: Vec<u32>,
    mark_off: Vec<u32>,
    /// Successor cores worth visiting, each with the range of `sources`
    /// that holds, per kernel item of the target in kernel order, the
    /// record it advances from.
    succs: Vec<(StateId, usize, usize)>,
    sources: Vec<u32>,
    /// Records of the final items (reductions), if this core is
    /// LALR-conflicted; empty otherwise.
    reductions: Vec<u32>,
    /// Shift terminals, if this core is LALR-conflicted.
    shifts: Vec<usize>,
}

impl Core {
    /// Closes core `q`: every closure nonterminal `C` gets the row
    /// `FIRST(δ)` over each closure item `· C δ`, plus the marker of a
    /// kernel item or the row of a nonterminal `B` whose item `· C δ` has
    /// a nullable `δ`, to a fixpoint.
    fn close(
        grammar: &Grammar,
        lr0: &Lr0Automaton,
        q: StateId,
        tails: &Tails,
        scratch: &mut CloseScratch,
        relevant: &BitSet,
        conflicted: &BitSet,
    ) -> Core {
        let w = tails.w;
        let t = grammar.terminal_count();
        let kernel = lr0.kernel(q).items();
        let m = kernel.len();
        let wc = (t + m).div_ceil(BITS);
        let leading_nt = |p: ProdId| match grammar.production(p).rhs().first() {
            Some(&Symbol::NonTerminal(c)) => Some(c),
            _ => None,
        };

        let sc = scratch;
        sc.nts.clear();
        for &k in kernel {
            if let Some(Symbol::NonTerminal(c)) = k.next_symbol(grammar) {
                sc.add(c);
            }
        }
        let mut i = 0;
        while i < sc.nts.len() {
            for &p in grammar.productions_of(sc.nts[i]) {
                if let Some(c) = leading_nt(p) {
                    sc.add(c);
                }
            }
            i += 1;
        }

        sc.rows.clear();
        sc.rows.resize(sc.nts.len() * wc, 0);
        for (j, &k) in kernel.iter().enumerate() {
            if let Some(Symbol::NonTerminal(c)) = k.next_symbol(grammar) {
                let at = sc.slot[c.index()] as usize * wc;
                kernels::or_assign(&mut sc.rows[at..at + w], tails.first(k));
                if tails.nullable(k) {
                    set_bit(&mut sc.rows[at..], t + j);
                }
            }
        }
        for &b in &sc.nts {
            for &p in grammar.productions_of(b) {
                if let Some(c) = leading_nt(p) {
                    let at = sc.slot[c.index()] as usize * wc;
                    kernels::or_assign(&mut sc.rows[at..at + w], tails.first(Item::start_of(p)));
                }
            }
        }
        sc.work.clear();
        sc.work.extend(0..sc.nts.len() as u32);
        sc.row.resize(wc, 0);
        while let Some(b) = sc.work.pop() {
            let b = b as usize;
            sc.row.copy_from_slice(&sc.rows[b * wc..(b + 1) * wc]);
            for &p in grammar.productions_of(sc.nts[b]) {
                let Some(c) = leading_nt(p) else { continue };
                let cs = sc.slot[c.index()] as usize;
                if cs != b
                    && tails.nullable(Item::start_of(p))
                    && kernels::or_into(&mut sc.rows[cs * wc..(cs + 1) * wc], &sc.row)
                {
                    sc.work.push(cs as u32);
                }
            }
        }

        // Terminal columns of a row's last terminal word; marker columns
        // start right after them.
        let last_word_mask = if t.is_multiple_of(BITS) {
            !0
        } else {
            (1 << (t % BITS)) - 1
        };
        let records = m + sc.nts.len();
        let mut spont = vec![0usize; records * w];
        let mut marks: Vec<u32> = (0..m as u32).collect();
        let mut mark_off: Vec<u32> = (0..=m as u32).collect();
        mark_off.reserve(sc.nts.len());
        for (b, row) in sc.rows.chunks_exact(wc).enumerate() {
            let r = m + b;
            spont[r * w..(r + 1) * w].copy_from_slice(&row[..w]);
            spont[(r + 1) * w - 1] &= last_word_mask;
            for col in t..t + m {
                if row[col / BITS] >> (col % BITS) & 1 != 0 {
                    marks.push((col - t) as u32);
                }
            }
            mark_off.push(marks.len() as u32);
        }

        // The record an item of this core's closure belongs to.
        let record = |item: Item| match kernel.binary_search(&item) {
            Ok(j) => j as u32,
            Err(_) => {
                debug_assert!(item.is_initial());
                let lhs = grammar.production(item.production()).lhs();
                m as u32 + sc.slot[lhs.index()]
            }
        };
        let mut succs = Vec::new();
        let mut sources = Vec::new();
        for &(_, to) in lr0.transitions(q) {
            if !relevant.contains(to.index()) {
                continue;
            }
            let start = sources.len();
            for &k in lr0.kernel(to).items() {
                sources.push(record(Item::new(k.production(), k.dot() - 1)));
            }
            succs.push((to, start, sources.len()));
        }

        let (reductions, shifts) = if conflicted.contains(q.index()) {
            let reductions = lr0
                .reductions(q)
                .iter()
                .map(|&p| record(Item::new(p, grammar.production(p).rhs().len())))
                .collect();
            let shifts = BitSet::from_indices(t, lr0.shift_symbols(q).map(Terminal::index));
            (reductions, shifts.as_words().to_vec())
        } else {
            (Vec::new(), Vec::new())
        };

        for &nt in &sc.nts {
            sc.slot[nt.index()] = CloseScratch::NONE;
        }
        Core {
            kernel: m,
            spont,
            marks,
            mark_off,
            succs,
            sources,
            reductions,
            shifts,
        }
    }

    /// Writes the look-ahead of record `r` into `out`, given the state's
    /// kernel look-ahead rows.
    fn la_into(&self, r: usize, kernel_rows: &[usize], w: usize, out: &mut [usize]) {
        out.copy_from_slice(&self.spont[r * w..(r + 1) * w]);
        let marks = &self.marks[self.mark_off[r] as usize..self.mark_off[r + 1] as usize];
        for &j in marks {
            let j = j as usize;
            kernels::or_assign(out, &kernel_rows[j * w..(j + 1) * w]);
        }
    }
}

/// The interned LR(1) states: a core and its kernel look-ahead rows,
/// stored back to back in one arena.
struct States {
    w: usize,
    core: Vec<StateId>,
    offset: Vec<usize>,
    rows: Vec<usize>,
    /// Fx hash of `(core, rows)` → the newest state with that hash; older
    /// ones chain through `next`. A grammar crafted for Fx collisions
    /// lengthens chains, so at worst squares a walk whose state count the
    /// same grammar already controls; a randomly keyed hasher measured
    /// about 10% slower on served cold compiles.
    heads: FxHashMap<u64, u32>,
    next: Vec<u32>,
}

impl States {
    const NONE: u32 = u32::MAX;

    fn rows_of(&self, s: usize, kernel: usize) -> &[usize] {
        &self.rows[self.offset[s]..self.offset[s] + kernel * self.w]
    }

    /// Adds `(core, rows)` unless it is already a state.
    fn intern(&mut self, core: StateId, rows: &[usize]) {
        let mut hasher = FxHasher::default();
        core.hash(&mut hasher);
        rows.hash(&mut hasher);
        let head = self.heads.entry(hasher.finish()).or_insert(Self::NONE);
        let mut s = *head;
        while s != Self::NONE {
            let i = s as usize;
            let off = self.offset[i];
            if self.core[i] == core && self.rows.get(off..off + rows.len()) == Some(rows) {
                return;
            }
            s = self.next[i];
        }
        self.next.push(*head);
        *head = self.core.len() as u32;
        self.core.push(core);
        self.offset.push(self.rows.len());
        self.rows.extend_from_slice(rows);
    }
}

/// Walks the canonical LR(1) states whose cores are in `relevant`,
/// counting conflicts in those whose cores are in `conflicted`.
fn walk(grammar: &Grammar, lr0: &Lr0Automaton, relevant: &BitSet, conflicted: &BitSet) -> Lr1Walk {
    let t = grammar.terminal_count();
    let w = t.div_ceil(BITS);
    let tails = Tails::new(grammar, w);
    let mut scratch = CloseScratch {
        slot: vec![CloseScratch::NONE; grammar.nonterminal_count()],
        nts: Vec::new(),
        rows: Vec::new(),
        work: Vec::new(),
        row: Vec::new(),
    };
    let mut cores: Vec<Option<Core>> = (0..lr0.state_count()).map(|_| None).collect();
    let mut closed_cores = 0;
    let mut states = States {
        w,
        core: Vec::new(),
        offset: Vec::new(),
        rows: Vec::new(),
        heads: FxHashMap::default(),
        next: Vec::new(),
    };

    // The start state: `<start> → · S` with look-ahead `$`.
    let mut row = BitSet::new(t);
    row.insert(Terminal::EOF.index());
    states.intern(StateId::START, row.as_words());

    let mut conflicts = 0;
    let mut la: Vec<usize> = Vec::new();
    let mut succ: Vec<usize> = Vec::new();
    let mut s = 0;
    while s < states.core.len() {
        let q = states.core[s];
        let core = cores[q.index()].get_or_insert_with(|| {
            closed_cores += 1;
            Core::close(grammar, lr0, q, &tails, &mut scratch, relevant, conflicted)
        });

        let nr = core.reductions.len();
        if nr > 0 {
            let kernel_rows = states.rows_of(s, core.kernel);
            la.clear();
            la.resize(nr * w, 0);
            for (i, &r) in core.reductions.iter().enumerate() {
                core.la_into(r as usize, kernel_rows, w, &mut la[i * w..(i + 1) * w]);
            }
            for i in 0..nr {
                let a = &la[i * w..(i + 1) * w];
                conflicts += overlap(a, &core.shifts);
                for j in i + 1..nr {
                    conflicts += overlap(a, &la[j * w..(j + 1) * w]);
                }
            }
        }

        for &(to, start, end) in &core.succs {
            let kernel_rows = states.rows_of(s, core.kernel);
            succ.clear();
            succ.resize((end - start) * w, 0);
            for (k, &r) in core.sources[start..end].iter().enumerate() {
                core.la_into(r as usize, kernel_rows, w, &mut succ[k * w..(k + 1) * w]);
            }
            states.intern(to, &succ);
        }
        s += 1;
    }

    Lr1Walk {
        conflicts,
        states: states.core.len(),
        cores: closed_cores,
    }
}

/// `|a ∩ b|` over equal-width rows.
fn overlap(a: &[usize], b: &[usize]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_automata::Lr1Automaton;
    use lalr_corpus::synthetic::{random, RandomConfig};
    use lalr_grammar::parse_grammar;

    /// Unpruned, the walk visits exactly the canonical machine's states.
    fn assert_unpruned_matches_canonical(name: &str, grammar: &Grammar) {
        let lr0 = Lr0Automaton::build(grammar);
        let all = BitSet::full(lr0.state_count());
        let got = walk(grammar, &lr0, &all, &all);
        let lr1 = Lr1Automaton::build(grammar);
        assert_eq!(got.states, lr1.state_count(), "{name}: state count");
        assert_eq!(got.cores, lr0.state_count(), "{name}: every core closed");
    }

    #[test]
    fn unpruned_walk_visits_the_canonical_states() {
        assert_unpruned_matches_canonical(
            "knuth",
            &parse_grammar("s : \"u\" a \"d\" | \"v\" a \"e\" ; a : \"c\" ;").unwrap(),
        );
        for entry in lalr_corpus::all_entries() {
            assert_unpruned_matches_canonical(entry.name, &entry.grammar());
        }
        let eps_rich = RandomConfig {
            nonterminals: 12,
            terminals: 8,
            productions: 36,
            max_rhs: 5,
            epsilon_prob: 0.25,
        };
        for seed in 0..40 {
            assert_unpruned_matches_canonical(
                &format!("random {seed}"),
                &random(seed, RandomConfig::default()),
            );
            assert_unpruned_matches_canonical(&format!("eps-rich {seed}"), &random(seed, eps_rich));
        }
    }

    #[test]
    fn no_lalr_conflicts_visits_nothing() {
        let g = parse_grammar("e : e \"+\" t | t ; t : \"x\" ;").unwrap();
        let lr0 = Lr0Automaton::build(&g);
        assert_eq!(lr1_conflicts(&g, &lr0, &[]), Lr1Walk::default());
    }

    #[test]
    fn reaching_includes_the_targets_and_their_ancestors() {
        // Knuth's split: the conflicted `a → c · / b → c ·` core is
        // reached from the start state through `u` and through `v`, and
        // reaches nothing further.
        let g = parse_grammar(
            "s : \"u\" a \"d\" | \"v\" b \"d\" | \"u\" b \"e\" | \"v\" a \"e\" ; a : \"c\" ; b : \"c\" ;",
        )
        .unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let sym = |name| g.terminal_by_name(name).unwrap().into();
        let after_u = lr0.transition(StateId::START, sym("u")).unwrap();
        let after_v = lr0.transition(StateId::START, sym("v")).unwrap();
        let after_c = lr0.transition(after_u, sym("c")).unwrap();
        assert_eq!(lr0.transition(after_v, sym("c")), Some(after_c));
        let targets = BitSet::from_indices(lr0.state_count(), [after_c.index()]);
        let mut want = vec![0, after_u.index(), after_v.index(), after_c.index()];
        want.sort_unstable();
        assert_eq!(reaching(&lr0, &targets).iter().collect::<Vec<_>>(), want);
    }
}
