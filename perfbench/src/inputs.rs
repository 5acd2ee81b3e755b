//! Generated inputs: grammar texts, renamed variants, documents, and
//! the committed expected answers.

use std::collections::{BTreeMap, HashSet};

use lalr_corpus::synthetic::{self, RandomConfig};
use lalr_grammar::Grammar;

/// Expected answers committed with the benchmark (`expected.tsv`).
const EXPECTED: &str = include_str!("../expected.tsv");

/// One grammar the benchmark sends, kept as text plus the names of its
/// nonterminals (for renaming).
pub struct Source {
    pub name: String,
    pub text: String,
    nonterminals: HashSet<String>,
}

/// Writes a grammar in the text format, one production per line, every
/// symbol separated by a space and quoted unless it is a plain identifier.
///
/// `Grammar`'s own `Display` leaves a terminal named `'` unquoted, which
/// does not parse back, so the benchmark renders grammars itself.
fn render(grammar: &Grammar) -> String {
    let name = |s: &str| -> String {
        let plain = s
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if plain {
            s.to_string()
        } else {
            format!("\"{s}\"")
        }
    };
    let mut out = format!(
        "%start {}\n",
        name(grammar.nonterminal_name(grammar.start()))
    );
    for (_, p) in grammar.iter_productions().skip(1) {
        out.push_str(&name(grammar.nonterminal_name(p.lhs())));
        out.push_str(" :");
        for &sym in p.rhs() {
            out.push(' ');
            out.push_str(&name(grammar.name_of(sym)));
        }
        if p.is_empty() {
            out.push_str(" %empty");
        }
        out.push_str(" ;\n");
    }
    out
}

impl Source {
    pub fn new(name: impl Into<String>, grammar: &Grammar) -> Source {
        assert!(
            grammar
                .terminals()
                .all(|t| grammar.precedence_of(t).is_none()),
            "benchmark grammars declare no precedence"
        );
        Source {
            name: name.into(),
            text: render(grammar),
            nonterminals: grammar
                .nonterminals()
                .map(|nt| grammar.nonterminal_name(nt).to_string())
                .filter(|n| !n.starts_with('<'))
                .collect(),
        }
    }

    /// The same grammar with every nonterminal suffixed by `_{tag}`: the
    /// same automaton under a fingerprint the service has not seen.
    pub fn renamed(&self, tag: &str) -> String {
        let mut out = String::with_capacity(self.text.len() + self.text.len() / 4);
        for line in self.text.lines() {
            for (i, token) in line.split(' ').enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(token);
                if self.nonterminals.contains(token) {
                    out.push('_');
                    out.push_str(tag);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The nine realistic corpus grammars.
pub fn realistic() -> Vec<Source> {
    lalr_corpus::realistic::all()
        .into_iter()
        .map(|e| Source::new(e.name, &e.grammar()))
        .collect()
}

/// The large synthetic grammars of `cold_scaling`, one per layer they load.
pub fn scaling() -> Vec<Source> {
    vec![
        Source::new("expr_ladder_64", &synthetic::expr_ladder(64)),
        Source::new("expr_ladder_128", &synthetic::expr_ladder(128)),
        Source::new("expr_ladder_256", &synthetic::expr_ladder(256)),
        Source::new("wide_forest_1024", &synthetic::wide_forest(1024)),
        Source::new("includes_scc_1024", &synthetic::includes_scc(1024)),
        Source::new("nullable_blocks_1024", &synthetic::nullable_blocks(1024)),
    ]
}

/// Corpus-sized random grammars: about 30 nonterminals, 20 terminals and
/// 90 productions. Without ε-productions the canonical LR(1) machines of
/// such grammars stay within a few times the median size (p98 about 4.5×
/// the median compile time against 10× at a 10% ε rate), so the pooled
/// p99 does not hinge on which few outliers a seed draws; the realistic
/// grammars carry the ε-rules.
pub const RANDOM: RandomConfig = RandomConfig {
    nonterminals: 30,
    terminals: 20,
    productions: 90,
    max_rhs: 4,
    epsilon_prob: 0.0,
};

/// Seed of the `i`-th random grammar of a run (SplitMix64 of seed and i).
pub fn random_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The text of the `i`-th random grammar of a run.
pub fn random_text(seed: u64, i: u64) -> String {
    render(&synthetic::random(random_seed(seed, i), RANDOM))
}

/// A sentence as the service reads a document: terminal names separated
/// by spaces.
pub fn document(grammar: &Grammar, sentence: &[lalr_grammar::Terminal]) -> String {
    sentence
        .iter()
        .map(|&t| grammar.terminal_name(t))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One row of `expected.tsv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub states: usize,
    pub conflicts: usize,
    pub class: String,
}

/// The committed expected answers, by grammar name.
pub fn expected() -> BTreeMap<String, Expected> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 4, "expected.tsv row: {line}");
            (
                cols[0].to_string(),
                Expected {
                    states: cols[1].parse().expect("states column"),
                    conflicts: cols[2].parse().expect("conflicts column"),
                    class: cols[3].to_string(),
                },
            )
        })
        .collect()
}

/// A tiny deterministic generator for request mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(random_seed(seed, 0x5EED))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        random_seed(self.0, 1)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_round_trips() {
        for source in realistic().iter().chain(scaling().iter()) {
            let original = lalr_corpus::by_name(&source.name).map(|e| e.grammar());
            let reparsed = lalr_grammar::parse_grammar(&source.text).unwrap();
            if let Some(original) = original {
                assert_eq!(reparsed, original, "{}", source.name);
            }
        }
    }

    #[test]
    fn renaming_keeps_the_automaton() {
        for source in realistic() {
            let renamed = lalr_grammar::parse_grammar(&source.renamed("r7")).unwrap();
            let original = lalr_grammar::parse_grammar(&source.text).unwrap();
            assert_eq!(renamed.production_count(), original.production_count());
            assert_eq!(renamed.terminal_count(), original.terminal_count());
            let a = lalr_automata::Lr0Automaton::build(&renamed).state_count();
            let b = lalr_automata::Lr0Automaton::build(&original).state_count();
            assert_eq!(a, b, "{}", source.name);
            assert_ne!(source.renamed("r7"), source.text);
        }
    }

    #[test]
    fn expected_covers_every_fixed_grammar() {
        let expected = expected();
        for source in realistic().iter().chain(scaling().iter()) {
            assert!(expected.contains_key(&source.name), "{}", source.name);
        }
    }
}
