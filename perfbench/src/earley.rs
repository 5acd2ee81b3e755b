//! An Earley recognizer: the parse-verdict oracle.
//!
//! It shares nothing with the LR pipeline but the grammar value, so a
//! document's verdict is known when it is generated, independently of
//! the tables the service parses with. It is exact for any context-free
//! grammar; the LR verdict matches it on grammars without LALR(1)
//! conflicts, which are the only ones the benchmark parses against.

use std::collections::HashSet;

use lalr_grammar::{Grammar, Symbol, Terminal};

/// Whether `tokens` is a sentence of `grammar`.
pub fn recognizes(grammar: &Grammar, tokens: &[Terminal]) -> bool {
    let prods: Vec<(usize, &[Symbol])> = grammar
        .iter_productions()
        .skip(1) // the augmented `<start>` production
        .map(|(_, p)| (p.lhs().index(), p.rhs()))
        .collect();
    let mut by_lhs = vec![Vec::new(); grammar.nonterminal_count()];
    for (i, &(lhs, _)) in prods.iter().enumerate() {
        by_lhs[lhs].push(i);
    }
    let nullable = nullable(grammar.nonterminal_count(), &prods);

    // An item is (production, dot, origin).
    let n = tokens.len();
    let mut sets: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n + 1];
    let mut seen: Vec<HashSet<(usize, usize, usize)>> = vec![HashSet::new(); n + 1];
    let start = grammar.start().index();
    for &p in &by_lhs[start] {
        seen[0].insert((p, 0, 0));
        sets[0].push((p, 0, 0));
    }
    for i in 0..=n {
        let mut k = 0;
        while k < sets[i].len() {
            let (p, dot, origin) = sets[i][k];
            k += 1;
            let (lhs, rhs) = prods[p];
            let mut add = |set: usize, item, sets: &mut Vec<Vec<_>>| {
                if seen[set].insert(item) {
                    sets[set].push(item);
                }
            };
            match rhs.get(dot) {
                None => {
                    // Complete: advance every item in the origin set
                    // that waits on `lhs`.
                    let mut j = 0;
                    while j < sets[origin].len() {
                        let (q, qdot, qorigin) = sets[origin][j];
                        j += 1;
                        if let Some(Symbol::NonTerminal(a)) = prods[q].1.get(qdot) {
                            if a.index() == lhs {
                                add(i, (q, qdot + 1, qorigin), &mut sets);
                            }
                        }
                    }
                }
                Some(Symbol::NonTerminal(a)) => {
                    for &q in &by_lhs[a.index()] {
                        add(i, (q, 0, i), &mut sets);
                    }
                    // Aycock–Horspool: step over a nullable nonterminal.
                    if nullable[a.index()] {
                        add(i, (p, dot + 1, origin), &mut sets);
                    }
                }
                Some(Symbol::Terminal(t)) => {
                    if i < n && tokens[i] == *t {
                        add(i + 1, (p, dot + 1, origin), &mut sets);
                    }
                }
            }
        }
    }
    sets[n]
        .iter()
        .any(|&(p, dot, origin)| origin == 0 && prods[p].0 == start && dot == prods[p].1.len())
}

fn nullable(nonterminals: usize, prods: &[(usize, &[Symbol])]) -> Vec<bool> {
    let mut nullable = vec![false; nonterminals];
    let mut changed = true;
    while changed {
        changed = false;
        for &(lhs, rhs) in prods {
            if !nullable[lhs]
                && rhs
                    .iter()
                    .all(|s| matches!(s, Symbol::NonTerminal(a) if nullable[a.index()]))
            {
                nullable[lhs] = true;
                changed = true;
            }
        }
    }
    nullable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(g: &Grammar, text: &str) -> Vec<Terminal> {
        text.split_whitespace()
            .map(|w| g.terminal_by_name(w).unwrap())
            .collect()
    }

    #[test]
    fn recognizes_expressions_and_rejects_garbage() {
        let g = lalr_grammar::parse_grammar(
            "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | x ;",
        )
        .unwrap();
        assert!(recognizes(&g, &tokens(&g, "x + x * ( x + x )")));
        assert!(!recognizes(&g, &tokens(&g, "x + * x")));
        assert!(!recognizes(&g, &tokens(&g, "")));
    }

    #[test]
    fn handles_nullable_nonterminals() {
        let g = lalr_grammar::parse_grammar("s : a a b ; a : | \"x\" ; b : \"y\" | ;").unwrap();
        assert!(recognizes(&g, &tokens(&g, "")));
        assert!(recognizes(&g, &tokens(&g, "x y")));
        assert!(recognizes(&g, &tokens(&g, "x x y")));
        assert!(!recognizes(&g, &tokens(&g, "x x x")));
    }
}
