//! Deterministic per-grammar counts: the numbers that must repeat
//! exactly between runs of the same code.

use std::collections::BTreeMap;

use crate::inputs::{self, Source};
use crate::report::Outcome;
use crate::{phases, warm, Args};

/// Count names, in report order.
pub const KEYS: [&str; 17] = [
    "lr0_states",
    "lr1_states",
    "nt_transitions",
    "reads_edges",
    "includes_edges",
    "lookback_edges",
    "reads_row_ops",
    "includes_row_ops",
    "table_cells",
    "action_entries",
    "compressed_entries",
    "allocs.parse",
    "allocs.lr0",
    "allocs.relations",
    "allocs.dp",
    "allocs.classify",
    "allocs.tables",
];

/// One grammar's counts, indexed like [`KEYS`].
pub type Counts = [u64; KEYS.len()];

/// The fixed (seed-independent) grammars a workload compiles.
pub fn sources(workload: &str) -> Vec<Source> {
    match workload {
        "cold_compile" => inputs::realistic(),
        "cold_scaling" => inputs::scaling(),
        _ => warm::grammars(),
    }
}

/// Counts of one grammar, from a direct compile on a quiet process.
pub fn of(text: &str) -> Counts {
    let d = phases::compile(text);
    let rel = d.analysis.relation_stats();
    let [reads_ops, includes_ops] = phases::digraph_row_ops(&d.relations);
    let ts = d.table.stats();
    let c = |i: usize| d.costs[i].allocs;
    [
        d.lr0.state_count() as u64,
        phases::lr1_states(&d.grammar) as u64,
        rel.nt_transitions as u64,
        rel.reads_edges as u64,
        rel.includes_edges as u64,
        rel.lookback_edges as u64,
        reads_ops,
        includes_ops,
        (ts.states * (ts.terminals + ts.nonterminals)) as u64,
        ts.action_entries as u64,
        d.compressed.explicit_entries() as u64,
        c(0),
        c(1),
        c(2),
        c(3),
        c(4),
        c(5),
    ]
}

/// Counts of every fixed grammar of `workload`, by name.
pub fn all(workload: &str) -> BTreeMap<String, Counts> {
    sources(workload)
        .into_iter()
        .map(|s| {
            let counts = of(&s.text);
            (s.name, counts)
        })
        .collect()
}

/// Computes the counts twice, requires them to agree, prints them with
/// a digest, and writes them to `.bench_out/`.
pub fn record(args: &Args, out: &mut Outcome) -> Result<BTreeMap<String, Counts>, String> {
    let first = all(&args.workload);
    let second = all(&args.workload);
    if first != second {
        out.broken = Some("deterministic counts differ between two passes".into());
    }
    let mut table = format!("grammar\t{}\n", KEYS.join("\t"));
    for (name, counts) in &first {
        let cells: Vec<String> = counts.iter().map(u64::to_string).collect();
        table.push_str(&format!("{name}\t{}\n", cells.join("\t")));
    }
    out.note(format!(
        "deterministic counts (digest {:016x}):",
        warm::hash(&table)
    ));
    for line in table.lines() {
        out.note(format!("  {line}"));
    }
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let path = format!(".bench_out/counts-{}.tsv", args.workload);
    std::fs::write(&path, table).map_err(|e| format!("{path}: {e}"))?;
    Ok(first)
}

/// Prints `expected.tsv` for the fixed grammars, cross-checking each
/// conflict count against the LR(1)-merge oracle.
pub fn write_expected() {
    println!("# grammar\tstates\tconflicts\tclass");
    for source in inputs::realistic().into_iter().chain(inputs::scaling()) {
        let d = phases::compile(&source.text);
        let oracle = phases::oracle_conflicts(&d.grammar);
        let row = (d.lr0.state_count(), d.adequacy.lalr_conflicts);
        assert_eq!(row, oracle, "{}: DP and LR(1)-merge disagree", source.name);
        println!(
            "{}\t{}\t{}\t{}",
            source.name, row.0, row.1, d.adequacy.class
        );
    }
}
