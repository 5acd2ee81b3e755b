//! Human-readable rendering of grammars.

use std::fmt;

use crate::grammar::Grammar;
use crate::production::ProdId;

/// Quotes a symbol name when it is not a plain identifier, so that
/// `Display` output re-parses with [`crate::parse_grammar`]. A leading
/// `'` would open a quoted literal, so such names are quoted too; a
/// name containing `"` takes single quotes.
fn quoted(name: &str) -> String {
    let ident = name.chars().next().is_some_and(|c| c != '\'')
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '\'' | '.'));
    if ident {
        name.to_string()
    } else if name.contains('"') {
        format!("'{name}'")
    } else {
        format!("\"{name}\"")
    }
}

impl Grammar {
    /// Renders one production as `lhs -> x y z` (ε shown as `%empty`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn production_to_string(&self, id: ProdId) -> String {
        let p = self.production(id);
        let rhs = if p.is_empty() {
            "%empty".to_string()
        } else {
            p.rhs()
                .iter()
                .map(|&s| self.name_of(s))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!("{} -> {}", self.nonterminal_name(p.lhs()), rhs)
    }
}

impl fmt::Display for Grammar {
    /// Writes the grammar back in the text format — precedence
    /// declarations (ascending), `%start`, one production per line with
    /// `%prec` annotations — such that re-parsing reproduces the grammar
    /// exactly (a tested fixpoint).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence levels, weakest first, one declaration per level.
        let mut levels: Vec<u16> = self
            .terminals()
            .filter_map(|t| self.precedence_of(t).map(|p| p.level))
            .collect();
        levels.sort_unstable();
        levels.dedup();
        for level in levels {
            let mut assoc = None;
            let names: Vec<String> = self
                .terminals()
                .filter_map(|t| {
                    let p = self.precedence_of(t)?;
                    (p.level == level).then(|| {
                        assoc = Some(p.assoc);
                        quoted(self.terminal_name(t))
                    })
                })
                .collect();
            let keyword = match assoc.expect("level has members") {
                crate::parse::Assoc::Left => "%left",
                crate::parse::Assoc::Right => "%right",
                crate::parse::Assoc::NonAssoc => "%nonassoc",
            };
            writeln!(f, "{keyword} {}", names.join(" "))?;
        }
        writeln!(f, "%start {}", quoted(self.nonterminal_name(self.start())))?;
        for (id, p) in self.iter_productions() {
            if id.index() == 0 {
                continue;
            }
            let rhs = if p.is_empty() {
                "%empty".to_string()
            } else {
                p.rhs()
                    .iter()
                    .map(|&s| quoted(self.name_of(s)))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let prec = match p.prec_override() {
                Some(t) => format!(" %prec {}", quoted(self.terminal_name(t))),
                None => String::new(),
            };
            let lhs = quoted(self.nonterminal_name(p.lhs()));
            writeln!(f, "{lhs} : {rhs}{prec} ;")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_grammar;
    use crate::ProdId;

    #[test]
    fn production_rendering() {
        let g = parse_grammar("s : \"a\" s | ;").unwrap();
        assert_eq!(g.production_to_string(ProdId::START), "<start> -> s");
        assert_eq!(g.production_to_string(ProdId::new(1)), "s -> a s");
        assert_eq!(g.production_to_string(ProdId::new(2)), "s -> %empty");
    }

    #[test]
    fn display_preserves_precedence_and_prec_overrides() {
        let src = r#"
            %left "+" "-"
            %right UMINUS
            %nonassoc "<"
            e : e "+" e | e "-" e | e "<" e | "-" e %prec UMINUS | NUM ;
        "#;
        let g = parse_grammar(src).unwrap();
        let text = g.to_string();
        let g2 = parse_grammar(&text).unwrap();
        assert_eq!(g, g2, "full-fidelity round trip:\n{text}");
        assert!(text.contains("%left"));
        assert!(text.contains("%right UMINUS"));
        assert!(text.contains("%nonassoc"));
        assert!(text.contains("%prec UMINUS"));
    }

    #[test]
    fn names_that_lex_as_literals_are_quoted() {
        // A leading `'` opens a quoted literal; a `"` needs the other
        // quote. Both must survive a round trip, on either side of `:`.
        let src = r#"%start "'a"  "'a" : "'" b 'x"y' ; b : "é" ;"#;
        let g = parse_grammar(src).unwrap();
        let text = g.to_string();
        assert_eq!(parse_grammar(&text).unwrap(), g, "{text}");
    }

    #[test]
    fn display_round_trips_through_parser() {
        let g = parse_grammar("%start e  e : e \"+\" t | t ; t : \"x\" | ;").unwrap();
        let text = g.to_string();
        let g2 = parse_grammar(&text).unwrap();
        assert_eq!(g.production_count(), g2.production_count());
        assert_eq!(g.terminal_count(), g2.terminal_count());
        assert_eq!(
            g.nonterminal_name(g.start()),
            g2.nonterminal_name(g2.start())
        );
        // And the rendered productions agree textually.
        for (id, _) in g.iter_productions() {
            assert_eq!(g.production_to_string(id), g2.production_to_string(id));
        }
    }
}
