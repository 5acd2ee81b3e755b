//! The one place the benchmark calls the compile phases' entry points.
//!
//! Every direct (unserved) call into the grammar, automata, core,
//! digraph and tables crates goes through this module, so a change to
//! those entry points touches the benchmark in one spot. The plain entry
//! points are used throughout: no recorder, sequential pipeline.

use std::time::{Duration, Instant};

use lalr_automata::{Lr0Automaton, Lr1Automaton};
use lalr_bench::alloc_counter::measure;
use lalr_bench::methods::Method;
use lalr_core::{
    classify_from, find_conflicts, LalrAnalysis, MethodAdequacy, Parallelism, Relations,
};
use lalr_digraph::{digraph, digraph_counting};
use lalr_grammar::Grammar;
use lalr_runtime::{Parser, Token};
use lalr_service::{CompiledArtifact, GrammarFormat};
use lalr_tables::{build_table, CompressedTable, ParseTable, TableOptions};

/// The compile phases in pipeline order, by layer metric prefix.
pub const PHASES: [&str; 6] = [
    "grammar.parse",
    "automata.lr0",
    "core.relations",
    "core.dp",
    "core.classify",
    "tables.build",
];

/// When one phase ran and how many allocations it made.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCost {
    pub start: Instant,
    pub end: Instant,
    pub allocs: u64,
}

impl PhaseCost {
    pub fn time(&self) -> Duration {
        self.end - self.start
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, PhaseCost) {
    let ((out, start, end), allocs) = measure(|| {
        let start = Instant::now();
        let out = f();
        (out, start, Instant::now())
    });
    (
        out,
        PhaseCost {
            start,
            end,
            allocs: allocs.allocations as u64,
        },
    )
}

/// Everything one direct compile produced, with the cost of each phase
/// (indexed like [`PHASES`]).
pub struct Direct {
    pub grammar: Grammar,
    pub lr0: Lr0Automaton,
    pub relations: Relations,
    pub analysis: LalrAnalysis,
    pub adequacy: MethodAdequacy,
    pub table: ParseTable,
    pub compressed: CompressedTable,
    pub costs: [PhaseCost; 6],
}

/// Runs the served pipeline's phases directly, in the order
/// `CompiledArtifact::compile` runs them.
pub fn compile(text: &str) -> Direct {
    let (grammar, parse) = timed(|| lalr_grammar::parse_grammar(text).expect("grammar parses"));
    let (lr0, lr0_cost) = timed(|| Lr0Automaton::build(&grammar));
    let (relations, relations_cost) = timed(|| Relations::build(&grammar, &lr0));
    let (analysis, dp) = timed(|| LalrAnalysis::from_relations(&grammar, &lr0, &relations));
    let (adequacy, classify) =
        timed(|| classify_from(&grammar, &lr0, &analysis, &Parallelism::sequential()));
    let ((table, compressed), tables) = timed(|| {
        let table = build_table(
            &grammar,
            &lr0,
            analysis.lookaheads(),
            TableOptions::default(),
        );
        let compressed = CompressedTable::from_dense(&table);
        (table, compressed)
    });
    Direct {
        grammar,
        lr0,
        relations,
        analysis,
        adequacy,
        table,
        compressed,
        costs: [parse, lr0_cost, relations_cost, dp, classify, tables],
    }
}

/// The two Digraph passes, run standalone over prebuilt relations:
/// `Read = Digraph(reads, DR)`, then `Follow = Digraph(includes, Read)`.
pub fn digraph_passes(relations: &Relations) -> [PhaseCost; 2] {
    let mut read = relations.dr().clone();
    let ((), reads) = timed(|| {
        digraph(relations.reads(), &mut read);
    });
    let mut follow = read.clone();
    let ((), includes) = timed(|| {
        digraph(relations.includes(), &mut follow);
    });
    [reads, includes]
}

/// Row operations (unions plus SCC copies) of the two Digraph passes.
pub fn digraph_row_ops(relations: &Relations) -> [u64; 2] {
    let mut read = relations.dr().clone();
    let (_, reads) = digraph_counting(relations.reads(), &mut read);
    let mut follow = read.clone();
    let (_, includes) = digraph_counting(relations.includes(), &mut follow);
    [
        reads.unions + reads.assigns,
        includes.unions + includes.assigns,
    ]
}

/// Words per bit row of a matrix over `terminals` columns.
pub fn row_words(terminals: usize) -> usize {
    terminals.div_ceil(usize::BITS as usize).max(1)
}

/// States of the canonical LR(1) machine, the work `classify` does.
pub fn lr1_states(grammar: &Grammar) -> usize {
    Lr1Automaton::build(grammar).state_count()
}

/// The paper's LR(1)-merge oracle: LALR(1) conflicts counted over the
/// look-aheads of the canonical LR(1) machine merged by core.
pub fn oracle_conflicts(grammar: &Grammar) -> (usize, usize) {
    let lr0 = Lr0Automaton::build(grammar);
    let las = Method::Lr1Merge.run(grammar, &lr0);
    (lr0.state_count(), find_conflicts(grammar, &lr0, &las).len())
}

/// The service's own compile of one grammar text, outside the service.
pub fn artifact_compile(text: &str) -> PhaseCost {
    let (artifact, cost) = timed(|| {
        CompiledArtifact::compile(text, GrammarFormat::Native, 0, &Parallelism::sequential())
            .expect("artifact compiles")
    });
    std::hint::black_box(artifact);
    cost
}

/// Parses documents (whitespace-separated terminal names) with the
/// runtime's LR parser over a dense table; returns (accepted, tokens).
pub fn parse_documents(table: &ParseTable, docs: &[String]) -> (usize, usize) {
    let parser = Parser::new(table);
    let (mut accepted, mut tokens) = (0, 0);
    for doc in docs {
        let stream: Vec<Token> = doc
            .split_whitespace()
            .enumerate()
            .map(|(i, w)| Token::new(table.terminal_by_name(w).expect("known terminal"), w, i))
            .collect();
        tokens += stream.len();
        accepted += usize::from(parser.parse(stream).is_ok());
    }
    (accepted, tokens)
}
