//! The engine behind the `lalrgen` binary.
//!
//! All commands are pure functions from parsed arguments to a `String`
//! (unit-testable); the binary only does I/O.
//!
//! ```text
//! lalrgen analyze  <grammar>             full DeRemer-Pennello report
//! lalrgen states   <grammar>             y.output-style state listing
//! lalrgen explain  <grammar>             explain each conflict (prefix + relation chains)
//! lalrgen classify <grammar>             one-line grammar class
//! lalrgen table    <grammar>             ACTION/GOTO matrix
//! lalrgen dot      <grammar>             LR(0) automaton in Graphviz DOT
//! lalrgen codegen  <grammar> [name]      standalone Rust parser module
//! lalrgen sentences <grammar> [n]        sample n random sentences
//! lalrgen parse    <grammar> <input> [--number T] [--ident T] [--string T] [--remote]
//! lalrgen check    <grammar> <cases>  run a +/- accept/reject case file
//! lalrgen profile  <grammar> [--trace-out F]  per-phase pipeline timing report
//! lalrgen serve    [--addr A] [--cache-mb N] [--max-conn N]   run the compile daemon
//! lalrgen client   <op> [grammar] [--addr A] [--input S]…     one request to a daemon
//! lalrgen stats    [--addr A] [--metrics]                     daemon statistics
//! lalrgen trace    [--addr A] [--op OP] [--slow-us N]         dump the flight recorder
//! lalrgen top      [--addr A] [--interval-ms N]               live daemon telemetry view
//! ```
//!
//! `<grammar>` is a path to a grammar file, or the name of a built-in
//! corpus grammar (e.g. `expr`, `pascal`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use lalr_automata::Lr0Automaton;
use lalr_core::{classify, LalrAnalysis, Parallelism};
use lalr_grammar::{Grammar, GrammarStats};
use lalr_runtime::{Lexer, Parser};
use lalr_tables::{build_table, TableOptions};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code to use.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn fail(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

/// The uniform error for a flag a command does not take: a usage error,
/// so it exits 2 like an unknown command.
fn unknown_flag(cmd: &str, flag: &str, available: &str) -> CliError {
    CliError {
        message: format!("unknown flag {flag:?} for {cmd} (available: {available})"),
        code: 2,
    }
}

/// Rejects any `--flag` among the arguments of a command that takes
/// positional arguments only.
fn no_flags(cmd: &str, args: &[String]) -> Result<(), CliError> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(unknown_flag(cmd, flag, "none")),
        None => Ok(()),
    }
}

/// Usage text.
pub const USAGE: &str = "usage: lalrgen <command> <grammar> [args]
  commands: analyze, explain, classify, states, table, dot, codegen,
            sentences, check, parse, profile, serve, store, client, stats,
            trace, top
  <grammar> is a file path or a corpus name (try: expr, json, pascal, c_subset)
  profile <grammar> [--trace-out FILE]   per-phase wall/alloc breakdown of the
         grammar -> LA pipeline; --trace-out writes a Chrome trace (chrome://tracing)
  serve  [--addr A] [--cache-mb N] [--max-conn N] [--deadline-ms N] [--max-pending N]
         [--drain-ms N] [--chaos SPEC] [--chaos-seed N] [--store DIR] [--no-store]
         [--shards N] [--trace-sample N] [--trace-capacity N]
         [--max-conn-per-peer N] [--rate-limit N] [--rate-burst N]
         [--write-budget-ms N] [--reject-timeout-ms N] [--threads N]
         run the compile daemon (x86-64 Linux only: it needs the epoll
         backend); --threads N sizes the worker pool (default: one worker
         per core)
         --chaos arms deterministic failpoints, e.g. \"daemon.write:partial:0.05\"
         --store persists compiled artifacts to DIR (mmap-loaded on repeat
         requests, surviving restarts); --no-store wins over --store
         --shards N multiplexes connections over N epoll event-loop shards
         --trace-sample N records every Nth request in the flight recorder
         (default 1 = all; 0 disables tracing entirely); --trace-capacity N
         sizes the recorder ring (default 256, rounded up to a power of two)
         --max-conn-per-peer N caps concurrent connections per source IP
         (over-quota accepts get a retryable throttled line; 0 = off);
         --rate-limit N admits at most N request lines/s (token bucket,
         burst --rate-burst, default = N); --write-budget-ms N closes
         connections that cannot drain queued responses in time;
         --reject-timeout-ms N bounds the rejection-line write (default 1000)
  store  <ls|verify|gc> --dir DIR [--max-age-s N]   maintain a persistent
         artifact store: list entries, verify checksums (exit 1 on any
         corrupt file), or remove artifacts not used for N seconds
  client <compile|classify|table|parse|stats|metrics|trace|health|shutdown> [grammar]
         [--addr A] [--input \"t t t\"]… [--recover] [--compressed] [--deadline-ms N]
         [--timeout-ms N] [--retries N] [--backoff-ms N]   retry transient failures
         with capped exponential backoff and deterministic jitter; client parse
         repeats --input to send one batch (documents are space-separated
         terminal names), --recover asks for error-recovery diagnostics
  parse  <grammar> <input> [--number T] [--ident T] [--string T]
         [--remote [--addr A]]   parse locally, or with --remote send the
         document to a running daemon as a one-document batch
  stats  [--addr A] [--metrics]   daemon statistics snapshot (--metrics: Prometheus text)
  trace  [--addr A] [--op OP] [--errors] [--slow-us N] [--limit N]
         [--chrome-out FILE]   dump the daemon's request flight recorder with a
         per-stage (queue/cache/compile/parse/write) breakdown; --chrome-out
         writes the traces as Chrome trace JSON (chrome://tracing)
  top    [--addr A] [--interval-ms N] [--iterations N]   live terminal view of
         daemon throughput, per-shard event-loop telemetry, and stage times
         (default: refresh every second until interrupted)";

/// Every command name, for the unknown-command error.
const COMMANDS: &str = "analyze, explain, classify, states, table, dot, codegen, sentences, check, parse, profile, serve, store, client, stats, trace, top";

/// Loads a grammar from a corpus name or a file path. Files ending in
/// `.y` are read with the yacc/bison reader (actions stripped).
pub fn load_grammar(arg: &str) -> Result<Grammar, CliError> {
    if let Some(entry) = lalr_corpus::by_name(arg) {
        return Ok(entry.grammar());
    }
    let text =
        std::fs::read_to_string(arg).map_err(|e| fail(format!("cannot read {arg:?}: {e}")))?;
    let parsed = if arg.ends_with(".y") {
        lalr_grammar::parse_yacc(&text)
    } else {
        lalr_grammar::parse_grammar(&text)
    };
    parsed.map_err(|e| fail(format!("{arg}: {e}")))
}

/// Dispatches a full argument vector (without `argv[0]`).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let rest = args.get(1..).unwrap_or(&[]);
    match cmd {
        "analyze" => cmd_analyze(rest),
        "explain" => cmd_explain(rest),
        "classify" => cmd_classify(rest),
        "states" => cmd_states(rest),
        "table" => cmd_table(rest),
        "dot" => cmd_dot(rest),
        "codegen" => cmd_codegen(rest),
        "sentences" => cmd_sentences(rest),
        "check" => cmd_check(rest),
        "parse" => cmd_parse(rest),
        "profile" => cmd_profile(rest),
        "serve" => cmd_serve(rest),
        "store" => cmd_store(rest),
        "client" => cmd_client(rest),
        "stats" => cmd_stats(rest),
        "trace" => cmd_trace(rest),
        "top" => cmd_top(rest),
        "" | "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError {
            message: format!("unknown command {other:?} (available: {COMMANDS})\n{USAGE}"),
            code: 2,
        }),
    }
}

fn grammar_arg<'a>(args: &'a [String], what: &str) -> Result<&'a str, CliError> {
    args.first().map(String::as_str).ok_or_else(|| CliError {
        message: format!("{what} needs a grammar argument\n{USAGE}"),
        code: 2,
    })
}

fn cmd_analyze(args: &[String]) -> Result<String, CliError> {
    no_flags("analyze", args)?;
    let name = grammar_arg(args, "analyze")?;
    let grammar = load_grammar(name)?;
    let stats = GrammarStats::compute(&grammar);
    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let rs = analysis.relation_stats();
    let conflicts = analysis.conflicts(&grammar, &lr0);

    let mut out = String::new();
    let _ = writeln!(out, "grammar {name}");
    let _ = writeln!(
        out,
        "  terminals {}  nonterminals {}  productions {}  |G| {}",
        stats.terminals, stats.nonterminals, stats.productions, stats.size
    );
    let _ = writeln!(
        out,
        "  nullable {}  left-recursive {}  epsilon-productions {}  useless {}",
        stats.nullable_nonterminals,
        stats.left_recursive,
        stats.epsilon_productions,
        stats.useless_nonterminals
    );
    let _ = writeln!(
        out,
        "lr0 states {}  nt-transitions {}  reads {}  includes {}  lookback {}",
        lr0.state_count(),
        rs.nt_transitions,
        rs.reads_edges,
        rs.includes_edges,
        rs.lookback_edges
    );
    for (label, ds) in [
        ("reads   ", analysis.reads_traversal()),
        ("includes", analysis.includes_traversal()),
    ] {
        let _ = writeln!(
            out,
            "digraph {label}  sccs {}  nontrivial {}  max-scc {}  cyclic-nodes {}",
            ds.scc_count, ds.nontrivial_sccs, ds.max_scc_size, ds.cyclic_nodes
        );
    }
    let la = analysis.lookaheads();
    let layout = la.layout();
    let _ = writeln!(
        out,
        "row layout: {}  ({} terminals, {} word(s)/row)",
        layout.name(),
        la.terminal_count(),
        layout.words(),
    );
    // Cardinality histogram of the look-ahead sets: how full the rows
    // the kernels sweep actually are.
    let mut buckets = [0usize; 6];
    for (_, set) in la.iter() {
        let c = set.count();
        let b = match c {
            0 => 0,
            1 => 1,
            2..=3 => 2,
            4..=7 => 3,
            8..=15 => 4,
            _ => 5,
        };
        buckets[b] += 1;
    }
    let _ = writeln!(
        out,
        "la-set terminal counts: 0:{} 1:{} 2-3:{} 4-7:{} 8-15:{} 16+:{}",
        buckets[0], buckets[1], buckets[2], buckets[3], buckets[4], buckets[5]
    );
    if analysis.grammar_not_lr_k() {
        let _ = writeln!(out, "NOT LR(k) for any k: the reads relation is cyclic");
    }
    let _ = writeln!(out, "lalr(1) conflicts: {}", conflicts.len());
    for c in conflicts.iter().take(20) {
        let _ = writeln!(out, "  {}", c.display(&grammar));
    }
    Ok(out)
}

fn cmd_classify(args: &[String]) -> Result<String, CliError> {
    no_flags("classify", args)?;
    let name = grammar_arg(args, "classify")?;
    let grammar = load_grammar(name)?;
    let m = classify(&grammar);
    Ok(format!(
        "{name}: {} (conflicts lr0={} slr={} nqlalr={} lalr={} lr1={}{})\n",
        m.class,
        m.lr0_conflicts,
        m.slr_conflicts,
        m.nqlalr_conflicts,
        m.lalr_conflicts,
        m.lr1_conflicts,
        if m.not_lr_k { ", reads cycle" } else { "" }
    ))
}

/// Explains every conflict with a viable prefix and the relation chains
/// that carry the offending terminal (see `lalr_core::explain_conflict`).
fn cmd_explain(args: &[String]) -> Result<String, CliError> {
    no_flags("explain", args)?;
    let name = grammar_arg(args, "explain")?;
    let grammar = load_grammar(name)?;
    let lr0 = Lr0Automaton::build(&grammar);
    let relations = lalr_core::Relations::build(&grammar, &lr0);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let conflicts = analysis.conflicts(&grammar, &lr0);
    if conflicts.is_empty() {
        return Ok(format!("{name}: no LALR(1) conflicts\n"));
    }
    let mut out = String::new();
    for c in conflicts.iter().take(10) {
        let _ = writeln!(
            out,
            "{}",
            lalr_core::explain_conflict(&grammar, &lr0, &relations, &analysis, c)
        );
    }
    if conflicts.len() > 10 {
        let _ = writeln!(out, "... and {} more", conflicts.len() - 10);
    }
    Ok(out)
}

/// The yacc `y.output` analogue: every state with its kernel items,
/// look-ahead-annotated reductions, and transitions.
fn cmd_states(args: &[String]) -> Result<String, CliError> {
    no_flags("states", args)?;
    let name = grammar_arg(args, "states")?;
    let grammar = load_grammar(name)?;
    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let la = analysis.lookaheads();

    let mut out = String::new();
    for state in lr0.states() {
        let _ = writeln!(out, "state {}", state.index());
        for item in lr0.kernel(state).items() {
            let _ = writeln!(out, "    {}", item.display(&grammar));
        }
        for &prod in lr0.reductions(state) {
            let names: Vec<&str> = la
                .la(state, prod)
                .map(|set| {
                    set.iter()
                        .map(|t| grammar.terminal_name(lalr_grammar::Terminal::new(t)))
                        .collect()
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "    reduce {}  [{}]",
                grammar.production_to_string(prod),
                names.join(" ")
            );
        }
        for &(sym, to) in lr0.transitions(state) {
            let verb = if sym.is_terminal() { "shift" } else { "goto" };
            let _ = writeln!(
                out,
                "    {} {} -> state {}",
                verb,
                grammar.name_of(sym),
                to.index()
            );
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

fn cmd_table(args: &[String]) -> Result<String, CliError> {
    no_flags("table", args)?;
    let name = grammar_arg(args, "table")?;
    let grammar = load_grammar(name)?;
    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let table = build_table(
        &grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );
    let mut out = table.to_string();
    if !table.resolutions().is_empty() {
        let _ = writeln!(out, "\n{} conflict(s) resolved:", table.resolutions().len());
        for r in table.resolutions() {
            let _ = writeln!(
                out,
                "  state {} on {:?}: kept {} over {} ({:?})",
                r.state,
                table.terminal_name(r.terminal),
                r.kept,
                r.discarded,
                r.reason
            );
        }
    }
    Ok(out)
}

fn cmd_dot(args: &[String]) -> Result<String, CliError> {
    no_flags("dot", args)?;
    let name = grammar_arg(args, "dot")?;
    let grammar = load_grammar(name)?;
    Ok(Lr0Automaton::build(&grammar).to_dot(&grammar))
}

fn cmd_codegen(args: &[String]) -> Result<String, CliError> {
    no_flags("codegen", args)?;
    let name = grammar_arg(args, "codegen")?;
    let grammar = load_grammar(name)?;
    let module = args.get(1).map(String::as_str).unwrap_or("parser");
    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let table = build_table(
        &grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );
    Ok(lalr_codegen::generate_module(&table, module))
}

fn cmd_sentences(args: &[String]) -> Result<String, CliError> {
    no_flags("sentences", args)?;
    let name = grammar_arg(args, "sentences")?;
    let grammar = load_grammar(name)?;
    let count: usize = args
        .get(1)
        .map(|s| s.parse().map_err(|_| fail(format!("bad count {s:?}"))))
        .transpose()?
        .unwrap_or(5);
    let mut out = String::new();
    for s in lalr_corpus::sentences::generate_many(&grammar, 1, count, 30) {
        let words: Vec<&str> = s.iter().map(|&t| grammar.terminal_name(t)).collect();
        let _ = writeln!(out, "{}", words.join(" "));
    }
    if out.is_empty() {
        return Err(fail("the grammar generates no sentences"));
    }
    Ok(out)
}

/// Runs a case file: each non-comment line is `+ tokens…` (must accept)
/// or `- tokens…` (must reject); tokens are whitespace-separated terminal
/// names. Exit is nonzero when any case fails.
fn cmd_check(args: &[String]) -> Result<String, CliError> {
    no_flags("check", args)?;
    let name = grammar_arg(args, "check")?;
    let grammar = load_grammar(name)?;
    let cases_path = args
        .get(1)
        .ok_or_else(|| fail("check needs a cases file"))?;
    let cases = std::fs::read_to_string(cases_path)
        .map_err(|e| fail(format!("cannot read {cases_path:?}: {e}")))?;

    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let table = build_table(
        &grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );
    let parser = Parser::new(&table);

    let mut out = String::new();
    let mut failures = 0usize;
    let mut total = 0usize;
    for (lineno, line) in cases.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (expect_accept, rest) = match line.split_at(1) {
            ("+", rest) => (true, rest),
            ("-", rest) => (false, rest),
            _ => {
                return Err(fail(format!(
                    "{cases_path}:{}: lines start with + or -",
                    lineno + 1
                )))
            }
        };
        total += 1;
        let mut tokens = Vec::new();
        let mut lex_ok = true;
        for (i, word) in rest.split_whitespace().enumerate() {
            match table.terminal_by_name(word) {
                Some(t) => tokens.push(lalr_runtime::Token::new(t, word, i)),
                None => {
                    lex_ok = false;
                    break;
                }
            }
        }
        let accepted = lex_ok && parser.parse(tokens).is_ok();
        if accepted != expect_accept {
            failures += 1;
            let _ = writeln!(
                out,
                "FAIL {cases_path}:{}: expected {}, got {}: {}",
                lineno + 1,
                if expect_accept { "accept" } else { "reject" },
                if accepted { "accept" } else { "reject" },
                rest.trim()
            );
        }
    }
    let _ = writeln!(out, "{} cases, {} failures", total, failures);
    if failures > 0 {
        return Err(CliError {
            message: out,
            code: 1,
        });
    }
    Ok(out)
}

fn cmd_parse(args: &[String]) -> Result<String, CliError> {
    let name = grammar_arg(args, "parse")?;
    let input = args
        .get(1)
        .ok_or_else(|| fail("parse needs an input string"))?;

    // Optional flags: lexer classes (local only), or --remote [--addr].
    let mut remote = false;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut classes: Vec<(&str, &str)> = Vec::new();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--remote" => {
                remote = true;
                i += 1;
            }
            "--addr" => {
                addr = flag_value(args, i, "--addr")?.to_string();
                i += 2;
            }
            flag @ ("--number" | "--ident" | "--string") => {
                classes.push((flag, flag_value(args, i, flag)?));
                i += 2;
            }
            other => {
                return Err(unknown_flag(
                    "parse",
                    other,
                    "--number, --ident, --string, --remote, --addr",
                ))
            }
        }
    }

    if remote {
        if let Some((flag, _)) = classes.first() {
            return Err(fail(format!(
                "{flag} tokenizes locally and cannot combine with --remote \
                 (remote documents are space-separated terminal names)"
            )));
        }
        return parse_remote(name, input, &addr);
    }

    let grammar = load_grammar(name)?;
    let lr0 = Lr0Automaton::build(&grammar);
    let analysis = LalrAnalysis::compute(&grammar, &lr0);
    let table = build_table(
        &grammar,
        &lr0,
        analysis.lookaheads(),
        TableOptions::default(),
    );

    let mut builder = Lexer::for_table(&table);
    for (flag, terminal) in classes {
        builder = match flag {
            "--number" => builder.number(terminal),
            "--ident" => builder.identifier(terminal),
            _ => builder.string(terminal),
        };
    }
    let lexer = builder.build();
    let tokens = lexer.tokenize(input).map_err(|e| fail(e.to_string()))?;
    match Parser::new(&table).parse(tokens) {
        Ok(tree) => Ok(format!("accepted\n{}\n", tree.to_sexpr(&table))),
        Err(e) => Err(fail(format!("rejected: {e}"))),
    }
}

/// `lalrgen parse --remote`: ship the document to a running daemon as a
/// one-document batch and render the verdict like the local path does.
fn parse_remote(name: &str, input: &str, addr: &str) -> Result<String, CliError> {
    let (grammar, format) = grammar_text(name)?;
    let request = lalr_service::Request::Parse {
        target: lalr_service::ParseTarget::Text { grammar, format },
        documents: vec![input.to_string()],
        recover: false,
        sync: Vec::new(),
    };
    let reply = lalr_service::call_with_retry(
        addr,
        &request,
        None,
        std::time::Duration::from_millis(30_000),
        &lalr_service::RetryPolicy::default(),
        &lalr_service::FaultInjector::disabled(),
    )
    .map_err(|e| fail(e.to_string()))?;
    if !reply.is_ok() {
        return Err(CliError {
            message: reply.raw,
            code: 1,
        });
    }
    let docs = reply
        .value
        .get("docs")
        .and_then(serde_json::Value::as_arr)
        .ok_or_else(|| fail("malformed parse response: no \"docs\" field"))?;
    let doc = docs
        .first()
        .ok_or_else(|| fail("malformed parse response: empty \"docs\""))?;
    if doc
        .get("accepted")
        .and_then(serde_json::Value::as_bool)
        .unwrap_or(false)
    {
        let tree = doc.get("tree").and_then(serde_json::Value::as_str);
        Ok(format!("accepted\n{}\n", tree.unwrap_or("(no tree)")))
    } else {
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(serde_json::Value::as_str)
            .unwrap_or("parse failed");
        Err(fail(format!("rejected: {message}")))
    }
}

/// `lalrgen profile`: runs the grammar → look-ahead pipeline under a
/// [`lalr_obs::CollectingRecorder`] and prints the per-phase breakdown —
/// wall time, share of the run, and allocation deltas (the counting
/// allocator from `lalr-bench` is linked into this binary, so the alloc
/// columns are real). `--trace-out FILE` additionally writes the run as
/// Chrome trace JSON, loadable in `chrome://tracing` or Perfetto.
fn cmd_profile(args: &[String]) -> Result<String, CliError> {
    let name = grammar_arg(args, "profile")?;
    let mut trace_out: Option<&str> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                trace_out = Some(flag_value(args, i, "--trace-out")?);
                i += 2;
            }
            other => return Err(unknown_flag("profile", other, "--trace-out")),
        }
    }

    let rec = lalr_obs::CollectingRecorder::with_alloc_probe(lalr_bench::alloc_counter::totals);
    let wall = std::time::Instant::now();
    let grammar = {
        let _span = lalr_obs::span(&rec, "parse");
        load_grammar(name)?
    };
    let lr0 = Lr0Automaton::build_recorded(&grammar, &rec);
    let analysis = LalrAnalysis::compute_recorded(&grammar, &lr0, &rec);
    let wall_ns = (wall.elapsed().as_nanos() as u64).max(1);
    let report = rec.report();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile {name}: {} lr0 states, {} reduction look-ahead sets",
        lr0.state_count(),
        analysis.lookaheads().reduction_count(),
    );
    out.push_str(&report.to_text());
    let coverage = 100.0 * report.phase_sum_ns() as f64 / wall_ns as f64;
    let _ = writeln!(
        out,
        "\npipeline wall time {:.1}us, phase coverage {coverage:.1}%",
        wall_ns as f64 / 1_000.0
    );
    if let Some(path) = trace_out {
        std::fs::write(path, report.to_chrome_trace())
            .map_err(|e| fail(format!("cannot write {path:?}: {e}")))?;
        let _ = writeln!(out, "chrome trace: {path} ({} events)", report.events.len());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The service daemon and its clients (`lalr-service`).

/// Where `client` and `stats` connect when `--addr` is not given; the
/// same default the daemon binds.
const DEFAULT_ADDR: &str = "127.0.0.1:4077";

fn flag_value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, CliError> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| fail(format!("{flag} needs a value")))
}

fn num_flag<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| fail(format!("bad value {value:?} for {flag}")))
}

/// Loads grammar *text* (not a parsed grammar): the daemon compiles
/// server-side, so the client ships source. Corpus names resolve to their
/// embedded source; `.y` files are flagged for the yacc reader.
fn grammar_text(arg: &str) -> Result<(String, lalr_service::GrammarFormat), CliError> {
    if let Some(entry) = lalr_corpus::by_name(arg) {
        return Ok((
            entry.source.to_string(),
            lalr_service::GrammarFormat::Native,
        ));
    }
    let text =
        std::fs::read_to_string(arg).map_err(|e| fail(format!("cannot read {arg:?}: {e}")))?;
    let format = if arg.ends_with(".y") {
        lalr_service::GrammarFormat::Yacc
    } else {
        lalr_service::GrammarFormat::Native
    };
    Ok((text, format))
}

/// `lalrgen serve`: binds the TCP daemon and blocks until an in-band
/// `shutdown` request (or a bind error). The bound address is announced
/// on stderr immediately — with `--addr 127.0.0.1:0` that line is how
/// callers learn the picked port.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    const FLAGS: &str = "--addr, --cache-mb, --max-conn, --deadline-ms, --max-pending, \
                         --drain-ms, --chaos, --chaos-seed, --store, --no-store, \
                         --shards, --trace-sample, --trace-capacity, \
                         --max-conn-per-peer, --rate-limit, --rate-burst, \
                         --write-budget-ms, --reject-timeout-ms, --threads";
    let mut config = lalr_service::DaemonConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..lalr_service::DaemonConfig::default()
    };
    let mut cache_mb: usize = 64;
    let mut deadline_ms: Option<u64> = None;
    let mut chaos_spec: Option<String> = None;
    let mut chaos_seed: u64 = 0;
    let mut store_dir: Option<std::path::PathBuf> = None;
    let mut no_store = false;
    let mut shards: usize = 1;
    let mut trace_sample: u64 = 1;
    let mut trace_capacity: usize = 256;
    let mut workers: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            // Boolean flags consume one argument, not two.
            "--no-store" => {
                no_store = true;
                i += 1;
                continue;
            }
            "--store" => {
                store_dir = Some(std::path::PathBuf::from(flag_value(args, i, "--store")?))
            }
            "--shards" => shards = num_flag(flag_value(args, i, "--shards")?, "--shards")?,
            "--threads" => {
                workers = Some(num_flag(flag_value(args, i, "--threads")?, "--threads")?)
            }
            "--trace-sample" => {
                trace_sample = num_flag(flag_value(args, i, "--trace-sample")?, "--trace-sample")?
            }
            "--trace-capacity" => {
                trace_capacity =
                    num_flag(flag_value(args, i, "--trace-capacity")?, "--trace-capacity")?
            }
            "--addr" => config.addr = flag_value(args, i, "--addr")?.to_string(),
            "--cache-mb" => cache_mb = num_flag(flag_value(args, i, "--cache-mb")?, "--cache-mb")?,
            "--max-conn" => {
                config.max_connections = num_flag(flag_value(args, i, "--max-conn")?, "--max-conn")?
            }
            "--deadline-ms" => {
                deadline_ms = Some(num_flag(
                    flag_value(args, i, "--deadline-ms")?,
                    "--deadline-ms",
                )?)
            }
            "--max-pending" => {
                config.service.max_pending =
                    num_flag(flag_value(args, i, "--max-pending")?, "--max-pending")?
            }
            "--drain-ms" => {
                config.drain_deadline = std::time::Duration::from_millis(num_flag(
                    flag_value(args, i, "--drain-ms")?,
                    "--drain-ms",
                )?)
            }
            "--chaos" => chaos_spec = Some(flag_value(args, i, "--chaos")?.to_string()),
            "--chaos-seed" => {
                chaos_seed = num_flag(flag_value(args, i, "--chaos-seed")?, "--chaos-seed")?
            }
            "--max-conn-per-peer" => {
                config.max_connections_per_peer = num_flag(
                    flag_value(args, i, "--max-conn-per-peer")?,
                    "--max-conn-per-peer",
                )?
            }
            "--rate-limit" => {
                config.rate_limit_per_sec =
                    num_flag(flag_value(args, i, "--rate-limit")?, "--rate-limit")?
            }
            "--rate-burst" => {
                config.rate_limit_burst =
                    num_flag(flag_value(args, i, "--rate-burst")?, "--rate-burst")?
            }
            "--write-budget-ms" => {
                config.write_budget = std::time::Duration::from_millis(num_flag(
                    flag_value(args, i, "--write-budget-ms")?,
                    "--write-budget-ms",
                )?)
            }
            "--reject-timeout-ms" => {
                config.reject_write_timeout = std::time::Duration::from_millis(num_flag(
                    flag_value(args, i, "--reject-timeout-ms")?,
                    "--reject-timeout-ms",
                )?)
            }
            other => return Err(unknown_flag("serve", other, FLAGS)),
        }
        i += 2;
    }
    if let Some(spec) = chaos_spec {
        // One injector across the daemon's I/O failpoints and the
        // service/cache failpoints, so a single `--chaos` spec arms the
        // whole stack and `metrics` reports every rule's counters.
        let faults = lalr_service::FaultPlan::parse(&spec, chaos_seed)
            .map_err(|e| fail(format!("--chaos: {e}")))?
            .build();
        config.faults = faults.clone();
        config.service.faults = faults;
    }
    // `--threads` sizes the worker pool; without it a server uses every
    // core.
    config.service.workers = workers.map_or_else(Parallelism::available, Parallelism::new);
    config.service.cache =
        (cache_mb > 0).then(|| lalr_service::CacheConfig::with_budget(cache_mb << 20));
    config.service.default_deadline = deadline_ms.map(std::time::Duration::from_millis);
    // `--no-store` wins over `--store` so scripts can append it to a
    // fixed flag list to turn persistence off.
    config.service.store_dir = if no_store { None } else { store_dir };
    // The served daemon arms the flight recorder by default (the
    // library default stays off); `--trace-sample 0` turns it off.
    config.service.tracing = (trace_sample > 0).then_some(lalr_service::TraceConfig {
        capacity: trace_capacity,
        sample_every: trace_sample,
    });

    // Scripts (and the bin tests) parse the first stderr line as
    // exactly `serving on ADDR`; the front-end detail goes on its own.
    let daemon =
        lalr_service::EventDaemon::start(config, shards).map_err(|e| fail(format!("bind: {e}")))?;
    eprintln!("serving on {}", daemon.addr());
    eprintln!("front end: {shards} event-loop shard(s)");
    let summary = daemon.join();
    let mut out = format!(
        "served {} connection(s), {} request(s)\ndrained {} connection(s) at shutdown, aborted {}\n",
        summary.connections, summary.requests, summary.drained, summary.aborted
    );
    if summary.restarts > 0 {
        let _ = writeln!(out, "recovered {} shard crash(es)", summary.restarts);
    }
    Ok(out)
}

/// `lalrgen store`: offline maintenance of a persistent artifact store
/// directory — list entries, verify checksums, and garbage-collect by
/// LRU age.
fn cmd_store(args: &[String]) -> Result<String, CliError> {
    const ACTIONS: &str = "ls, verify, gc";
    const FLAGS: &str = "--dir, --max-age-s";
    let action = args.first().map(String::as_str).unwrap_or("");
    let rest = args.get(1..).unwrap_or(&[]);
    let mut dir: Option<std::path::PathBuf> = None;
    let mut max_age_s: u64 = 0;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--dir" => dir = Some(std::path::PathBuf::from(flag_value(rest, i, "--dir")?)),
            "--max-age-s" => {
                max_age_s = num_flag(flag_value(rest, i, "--max-age-s")?, "--max-age-s")?
            }
            other => return Err(unknown_flag("store", other, FLAGS)),
        }
        i += 2;
    }
    match action {
        "ls" | "verify" | "gc" => {}
        "" => {
            return Err(fail(format!(
                "store needs an action (available: {ACTIONS})"
            )))
        }
        other => {
            return Err(fail(format!(
                "unknown store action {other:?} (available: {ACTIONS})"
            )))
        }
    }
    let dir = dir.ok_or_else(|| fail("store needs --dir <path>"))?;
    let store = lalr_store::Store::open(&dir).map_err(|e| fail(format!("open {dir:?}: {e}")))?;
    match action {
        "ls" => {
            let mut entries = store.ls().map_err(|e| fail(format!("ls: {e}")))?;
            entries.sort_by_key(|e| e.fingerprint);
            let mut out = String::new();
            let mut total = 0u64;
            for e in &entries {
                total += e.bytes;
                out.push_str(&format!(
                    "{:016x}  {:>10} bytes  age {:>6}s\n",
                    e.fingerprint,
                    e.bytes,
                    e.age.as_secs()
                ));
            }
            out.push_str(&format!(
                "{} artifact(s), {} byte(s) total\n",
                entries.len(),
                total
            ));
            Ok(out)
        }
        "verify" => {
            let report = store.verify().map_err(|e| fail(format!("verify: {e}")))?;
            let mut out = format!("{} ok, {} corrupt\n", report.ok, report.corrupt.len());
            for (path, reason) in &report.corrupt {
                out.push_str(&format!("corrupt {}: {reason}\n", path.display()));
            }
            if report.corrupt.is_empty() {
                Ok(out)
            } else {
                Err(CliError {
                    message: out,
                    code: 1,
                })
            }
        }
        "gc" => {
            let report = store
                .gc(std::time::Duration::from_secs(max_age_s))
                .map_err(|e| fail(format!("gc: {e}")))?;
            Ok(format!(
                "removed {} artifact(s) older than {}s, kept {}, swept {} temp file(s), reclaimed {} byte(s)\n",
                report.removed, max_age_s, report.kept, report.temps, report.reclaimed_bytes
            ))
        }
        _ => unreachable!("action validated above"),
    }
}

/// `lalrgen client`: one request to a running daemon; prints the raw
/// response line. Errors from the daemon exit nonzero with the line on
/// stderr.
fn cmd_client(args: &[String]) -> Result<String, CliError> {
    const OPS: &str = "compile, classify, table, parse, stats, metrics, trace, health, shutdown";
    const FLAGS: &str = "--addr, --input, --recover, --compressed, --deadline-ms, --timeout-ms, \
                         --retries, --backoff-ms";
    let mut addr = DEFAULT_ADDR.to_string();
    let mut inputs: Vec<String> = Vec::new();
    let mut recover = false;
    let mut compressed = false;
    let mut deadline_ms: Option<u64> = None;
    let mut timeout_ms: u64 = 30_000;
    let mut retries: u32 = 0;
    let mut backoff_ms: u64 = 50;
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = flag_value(args, i, "--addr")?.to_string();
                i += 2;
            }
            "--input" => {
                inputs.push(flag_value(args, i, "--input")?.to_string());
                i += 2;
            }
            "--recover" => {
                recover = true;
                i += 1;
            }
            "--compressed" => {
                compressed = true;
                i += 1;
            }
            "--deadline-ms" => {
                deadline_ms = Some(num_flag(
                    flag_value(args, i, "--deadline-ms")?,
                    "--deadline-ms",
                )?);
                i += 2;
            }
            "--timeout-ms" => {
                timeout_ms = num_flag(flag_value(args, i, "--timeout-ms")?, "--timeout-ms")?;
                i += 2;
            }
            "--retries" => {
                retries = num_flag(flag_value(args, i, "--retries")?, "--retries")?;
                i += 2;
            }
            "--backoff-ms" => {
                backoff_ms = num_flag(flag_value(args, i, "--backoff-ms")?, "--backoff-ms")?;
                i += 2;
            }
            other if other.starts_with("--") => return Err(unknown_flag("client", other, FLAGS)),
            other => {
                positional.push(other);
                i += 1;
            }
        }
    }
    let op = *positional
        .first()
        .ok_or_else(|| fail(format!("client needs an op (available: {OPS})")))?;
    let request = match op {
        "stats" => lalr_service::Request::Stats,
        "metrics" => lalr_service::Request::Metrics,
        "trace" => lalr_service::Request::Trace(lalr_service::TraceFilter::default()),
        "health" => lalr_service::Request::Health,
        "shutdown" => lalr_service::Request::Shutdown,
        "compile" | "classify" | "table" | "parse" => {
            let name = positional.get(1).ok_or_else(|| {
                fail(format!(
                    "client {op} needs a grammar (file path or corpus name)"
                ))
            })?;
            let (grammar, format) = grammar_text(name)?;
            match op {
                "compile" => lalr_service::Request::Compile { grammar, format },
                "classify" => lalr_service::Request::Classify { grammar, format },
                "table" => lalr_service::Request::Table {
                    grammar,
                    format,
                    compressed,
                },
                _ => {
                    if inputs.is_empty() {
                        return Err(fail(
                            "client parse needs at least one --input \"tok tok …\" \
                             (repeat --input to batch documents)",
                        ));
                    }
                    lalr_service::Request::Parse {
                        target: lalr_service::ParseTarget::Text { grammar, format },
                        documents: inputs.clone(),
                        recover,
                        sync: Vec::new(),
                    }
                }
            }
        }
        other => {
            return Err(fail(format!(
                "unknown client op {other:?} (available: {OPS})"
            )))
        }
    };
    // The retry policy's seed is fixed: a given invocation's backoff
    // schedule is reproducible, and the per-attempt jitter still spreads
    // concurrent clients started with different --backoff-ms values.
    let policy = lalr_service::RetryPolicy {
        retries,
        backoff: std::time::Duration::from_millis(backoff_ms),
        ..lalr_service::RetryPolicy::default()
    };
    let reply = lalr_service::call_with_retry(
        &addr,
        &request,
        deadline_ms.map(std::time::Duration::from_millis),
        std::time::Duration::from_millis(timeout_ms),
        &policy,
        &lalr_service::FaultInjector::disabled(),
    )
    .map_err(|e| fail(e.to_string()))?;
    if reply.is_ok() {
        if matches!(request, lalr_service::Request::Metrics) {
            // The interesting payload is the exposition text itself;
            // print it verbatim so the output is directly scrapeable.
            let text = reply
                .value
                .get("text")
                .and_then(serde_json::Value::as_str)
                .ok_or_else(|| fail("malformed metrics response: no \"text\" field"))?;
            return Ok(text.to_string());
        }
        Ok(format!("{}\n", reply.raw))
    } else {
        Err(CliError {
            message: reply.raw,
            code: 1,
        })
    }
}

/// `lalrgen stats`: shorthand for `client stats`. With `--metrics` it
/// asks for the Prometheus-style text exposition instead of the JSON
/// snapshot (shorthand for `client metrics`).
fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    let mut metrics = false;
    let mut forwarded = Vec::with_capacity(args.len() + 1);
    for arg in args {
        if arg == "--metrics" {
            metrics = true;
        } else {
            forwarded.push(arg.clone());
        }
    }
    forwarded.insert(0, if metrics { "metrics" } else { "stats" }.to_string());
    cmd_client(&forwarded)
}

/// One call to a daemon returning the parsed JSON response, shared by
/// the `trace` and `top` front ends.
fn daemon_call(
    addr: &str,
    request: &lalr_service::Request,
    timeout_ms: u64,
) -> Result<serde_json::Value, CliError> {
    let reply = lalr_service::call_with_retry(
        addr,
        request,
        None,
        std::time::Duration::from_millis(timeout_ms),
        &lalr_service::RetryPolicy::default(),
        &lalr_service::FaultInjector::disabled(),
    )
    .map_err(|e| fail(e.to_string()))?;
    if !reply.is_ok() {
        return Err(CliError {
            message: reply.raw,
            code: 1,
        });
    }
    Ok(reply.value)
}

fn json_u64(v: &serde_json::Value, key: &str) -> u64 {
    v.get(key).and_then(serde_json::Value::as_u64).unwrap_or(0)
}

/// `lalrgen trace`: dumps a daemon's request flight recorder. Each
/// sampled request prints one stage-breakdown line
/// (`queue/cache/compile/parse/write` microseconds plus their share of
/// the recorded total); `--chrome-out FILE` additionally renders the
/// traces as Chrome trace JSON, one timeline row per request.
fn cmd_trace(args: &[String]) -> Result<String, CliError> {
    const FLAGS: &str = "--addr, --op, --errors, --slow-us, --limit, --chrome-out, --timeout-ms";
    let mut addr = DEFAULT_ADDR.to_string();
    let mut filter = lalr_service::TraceFilter::default();
    let mut chrome_out: Option<String> = None;
    let mut timeout_ms: u64 = 30_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--errors" => {
                filter.errors_only = true;
                i += 1;
                continue;
            }
            "--addr" => addr = flag_value(args, i, "--addr")?.to_string(),
            "--op" => filter.op = Some(flag_value(args, i, "--op")?.to_string()),
            "--slow-us" => {
                filter.slow_us = Some(num_flag(flag_value(args, i, "--slow-us")?, "--slow-us")?)
            }
            "--limit" => filter.limit = Some(num_flag(flag_value(args, i, "--limit")?, "--limit")?),
            "--chrome-out" => chrome_out = Some(flag_value(args, i, "--chrome-out")?.to_string()),
            "--timeout-ms" => {
                timeout_ms = num_flag(flag_value(args, i, "--timeout-ms")?, "--timeout-ms")?
            }
            other => return Err(unknown_flag("trace", other, FLAGS)),
        }
        i += 2;
    }
    let value = daemon_call(&addr, &lalr_service::Request::Trace(filter), timeout_ms)?;
    if !value
        .get("enabled")
        .and_then(serde_json::Value::as_bool)
        .unwrap_or(false)
    {
        return Ok(
            "tracing disabled (serve with --trace-sample N, N > 0, to arm the recorder)\n"
                .to_string(),
        );
    }
    let traces = value
        .get("traces")
        .and_then(serde_json::Value::as_arr)
        .unwrap_or(&[]);
    let mut out = format!(
        "request traces: {} shown, {} recorded (capacity {}, sampling 1-in-{})\n",
        traces.len(),
        json_u64(&value, "recorded"),
        json_u64(&value, "capacity"),
        json_u64(&value, "sample_every"),
    );
    let mut events: Vec<lalr_obs::SpanEvent> = Vec::new();
    let mut total_ns = 0u64;
    for t in traces {
        let op = t
            .get("op")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("unknown");
        let error = t
            .get("error")
            .and_then(serde_json::Value::as_bool)
            .unwrap_or(false);
        let total_us = json_u64(t, "total_us");
        let sum_us = json_u64(t, "stage_sum_us");
        let share = if total_us > 0 {
            100.0 * sum_us as f64 / total_us as f64
        } else {
            0.0
        };
        let stages = t.get("stages_us");
        let stage_us = |name: &str| stages.map_or(0, |s| json_u64(s, name));
        let _ = writeln!(
            out,
            "#{} {op} shard={} {} total={total_us}us stages queue={} cache={} compile={} \
             parse={} write={} sum={sum_us}us ({share:.1}% of total)",
            json_u64(t, "id"),
            json_u64(t, "shard"),
            if error { "err" } else { "ok" },
            stage_us("queue"),
            stage_us("cache"),
            stage_us("compile"),
            stage_us("parse"),
            stage_us("write"),
        );
        // One Chrome timeline row per request: its stages laid
        // back-to-back from t=0 (rows are independent tids).
        let tid = json_u64(t, "id") as usize;
        let mut cursor = 0u64;
        for name in lalr_obs::STAGE_NAMES {
            let dur_ns = stage_us(name) * 1_000;
            if dur_ns > 0 {
                events.push(lalr_obs::SpanEvent {
                    name,
                    tid,
                    depth: 0,
                    start_ns: cursor,
                    dur_ns,
                    allocs: 0,
                    bytes: 0,
                });
                cursor += dur_ns;
            }
        }
        total_ns = total_ns.max(cursor);
    }
    if let Some(path) = chrome_out {
        let report = lalr_obs::PhaseReport {
            phases: Vec::new(),
            nested: Vec::new(),
            counters: vec![("traces", traces.len() as u64)],
            events,
            total_ns,
        };
        std::fs::write(&path, report.to_chrome_trace())
            .map_err(|e| fail(format!("cannot write {path:?}: {e}")))?;
        let _ = writeln!(out, "chrome trace: {path} ({} events)", report.events.len());
    }
    Ok(out)
}

/// Renders one `top` frame from a daemon's `stats` response: request
/// throughput, per-shard event-loop telemetry, and tracing stage totals.
fn top_frame(addr: &str, value: &serde_json::Value) -> String {
    let mut out = format!(
        "lalrgen top — {addr}\nrequests {}  errors {}  shed {}  queue {}/{}  workers {}  uptime {:.1}s\n",
        json_u64(value, "requests"),
        json_u64(value, "errors"),
        json_u64(value, "shed"),
        json_u64(value, "queue_depth"),
        json_u64(value, "queue_limit"),
        json_u64(value, "workers"),
        json_u64(value, "uptime_ms") as f64 / 1_000.0,
    );
    if let Some(health) = value.get("health") {
        let state = health
            .get("state")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("unknown");
        let rejects = health.get("admission_rejects");
        let _ = writeln!(
            out,
            "health {state}  degraded-transitions {}  shard-restarts {}  \
             admission-rejects {}  peer-quota {}  rate-limit {}/s",
            json_u64(health, "degraded_transitions"),
            json_u64(health, "shard_restarts"),
            rejects.map_or(0, |r| json_u64(r, "total")),
            json_u64(health, "max_connections_per_peer"),
            json_u64(health, "rate_limit_per_sec"),
        );
    }
    if let Some(by_op) = value.get("by_op").and_then(serde_json::Value::as_obj) {
        let errors = value.get("errors_by_op");
        let _ = writeln!(out, "{:<10} {:>10} {:>8}", "op", "requests", "errors");
        for (op, count) in by_op {
            let n = count.as_u64().unwrap_or(0);
            if n == 0 {
                continue;
            }
            let e = errors.map_or(0, |e| json_u64(e, op));
            let _ = writeln!(out, "{op:<10} {n:>10} {e:>8}");
        }
    }
    if let Some(shards) = value.get("shards").and_then(serde_json::Value::as_arr) {
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>8} {:>12} {:>10} {:>8} {:>7} {:>7}",
            "shard", "conns", "accepts", "epoll_waits", "wait_ms", "events", "inbox", "timers"
        );
        for sh in shards {
            let _ = writeln!(
                out,
                "{:<6} {:>6} {:>8} {:>12} {:>10.1} {:>8} {:>7} {:>7}",
                json_u64(sh, "shard"),
                json_u64(sh, "connections"),
                json_u64(sh, "accepts"),
                json_u64(sh, "epoll_waits"),
                json_u64(sh, "epoll_wait_us") as f64 / 1_000.0,
                json_u64(sh, "events"),
                json_u64(sh, "inbox_items"),
                json_u64(sh, "timer_fires"),
            );
        }
    }
    if let Some(tracing) = value.get("tracing") {
        let _ = writeln!(
            out,
            "tracing: {} sampled (1-in-{}, capacity {})",
            json_u64(tracing, "sampled"),
            json_u64(tracing, "sample_every"),
            json_u64(tracing, "capacity"),
        );
        if let Some(stages) = tracing.get("stage_us") {
            let _ = writeln!(
                out,
                "stage us totals: queue={} cache={} compile={} parse={} write={}",
                json_u64(stages, "queue"),
                json_u64(stages, "cache"),
                json_u64(stages, "compile"),
                json_u64(stages, "parse"),
                json_u64(stages, "write"),
            );
        }
    }
    out
}

/// `lalrgen top`: a live terminal view of a running daemon, refreshed
/// from its `stats` op. With `--iterations N` it polls N times and
/// returns the concatenated frames (scriptable/testable); without it,
/// it redraws in place every `--interval-ms` until interrupted.
fn cmd_top(args: &[String]) -> Result<String, CliError> {
    const FLAGS: &str = "--addr, --interval-ms, --iterations, --timeout-ms";
    let mut addr = DEFAULT_ADDR.to_string();
    let mut interval_ms: u64 = 1_000;
    let mut iterations: u64 = 0;
    let mut timeout_ms: u64 = 5_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = flag_value(args, i, "--addr")?.to_string(),
            "--interval-ms" => {
                interval_ms = num_flag(flag_value(args, i, "--interval-ms")?, "--interval-ms")?
            }
            "--iterations" => {
                iterations = num_flag(flag_value(args, i, "--iterations")?, "--iterations")?
            }
            "--timeout-ms" => {
                timeout_ms = num_flag(flag_value(args, i, "--timeout-ms")?, "--timeout-ms")?
            }
            other => return Err(unknown_flag("top", other, FLAGS)),
        }
        i += 2;
    }
    let mut frames = String::new();
    let mut polled = 0u64;
    loop {
        let value = daemon_call(&addr, &lalr_service::Request::Stats, timeout_ms)?;
        let frame = top_frame(&addr, &value);
        polled += 1;
        if iterations == 0 {
            // Live mode: clear and redraw in place, forever.
            print!("\x1b[2J\x1b[H{frame}");
            let _ = std::io::Write::flush(&mut std::io::stdout());
        } else {
            frames.push_str(&frame);
            if polled >= iterations {
                return Ok(frames);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run_strs(&[]).unwrap().contains("usage"));
        assert!(run_strs(&["help"]).unwrap().contains("usage"));
        let err = run_strs(&["frobnicate"]).unwrap_err();
        assert_eq!(err.code, 2);
        // The error itself enumerates what *is* available.
        assert!(
            err.message.contains("available: analyze,"),
            "{}",
            err.message
        );
        assert!(err.message.contains("serve"), "{}", err.message);
    }

    #[test]
    fn unknown_flags_list_the_available_ones() {
        let err = run_strs(&["parse", "expr", "1", "--wat", "x"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("available: --number"),
            "{}",
            err.message
        );
        let err = run_strs(&["serve", "--wat"]).unwrap_err();
        assert!(err.message.contains("available: --addr"), "{}", err.message);
        // The persistence and front-end flags are advertised too.
        for flag in ["--store", "--no-store", "--shards"] {
            assert!(err.message.contains(flag), "{flag}: {}", err.message);
        }
        let err = run_strs(&["client", "compile", "expr", "--wat"]).unwrap_err();
        assert!(err.message.contains("available: --addr"), "{}", err.message);
        let err = run_strs(&["store", "ls", "--wat"]).unwrap_err();
        assert!(err.message.contains("available: --dir"), "{}", err.message);
        let err = run_strs(&["trace", "--wat"]).unwrap_err();
        assert!(err.message.contains("--chrome-out"), "{}", err.message);
        let err = run_strs(&["top", "--wat"]).unwrap_err();
        assert!(err.message.contains("--interval-ms"), "{}", err.message);
        // The serve tracing knobs are advertised.
        let err = run_strs(&["serve", "--wat"]).unwrap_err();
        for flag in ["--trace-sample", "--trace-capacity"] {
            assert!(err.message.contains(flag), "{flag}: {}", err.message);
        }
        // The admission-control knobs are advertised.
        for flag in [
            "--max-conn-per-peer",
            "--rate-limit",
            "--rate-burst",
            "--write-budget-ms",
            "--reject-timeout-ms",
        ] {
            assert!(err.message.contains(flag), "{flag}: {}", err.message);
        }
        // The client op list includes the health probe.
        let err = run_strs(&["client", "frobnicate"]).unwrap_err();
        assert!(err.message.contains("health"), "{}", err.message);
    }

    #[test]
    fn store_subcommand_validates_arguments() {
        let err = run_strs(&["store"]).unwrap_err();
        assert!(err.message.contains("available: ls"), "{}", err.message);
        let err = run_strs(&["store", "frobnicate"]).unwrap_err();
        assert!(err.message.contains("available: ls"), "{}", err.message);
        let err = run_strs(&["store", "ls"]).unwrap_err();
        assert!(err.message.contains("--dir"), "{}", err.message);
    }

    #[test]
    fn store_subcommand_lists_verifies_and_gcs() {
        let dir = std::env::temp_dir().join(format!(
            "lalr-cli-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();

        // Populate the store through a real service compile.
        let service = lalr_service::Service::new(lalr_service::ServiceConfig {
            store_dir: Some(dir.clone()),
            ..lalr_service::ServiceConfig::default()
        });
        assert!(service
            .call(
                lalr_service::Request::Compile {
                    grammar: "e : e \"+\" t | t ; t : \"x\" ;".to_string(),
                    format: lalr_service::GrammarFormat::Native,
                },
                None,
            )
            .is_ok());
        service.shutdown();

        let out = run_strs(&["store", "ls", "--dir", &dir_arg]).unwrap();
        assert!(out.contains("1 artifact(s)"), "{out}");
        let out = run_strs(&["store", "verify", "--dir", &dir_arg]).unwrap();
        assert!(out.contains("1 ok, 0 corrupt"), "{out}");

        // A young artifact survives an aged GC…
        let out = run_strs(&["store", "gc", "--dir", &dir_arg, "--max-age-s", "3600"]).unwrap();
        assert!(out.contains("removed 0"), "{out}");
        assert!(out.contains("kept 1"), "{out}");

        // …corruption is detected with a nonzero exit…
        let artifact = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".lalr"))
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&artifact).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&artifact, bytes).unwrap();
        let err = run_strs(&["store", "verify", "--dir", &dir_arg]).unwrap_err();
        assert!(err.message.contains("1 corrupt"), "{}", err.message);

        // …and an age-0 GC clears the directory.
        let out = run_strs(&["store", "gc", "--dir", &dir_arg, "--max-age-s", "0"]).unwrap();
        assert!(out.contains("removed 1"), "{out}");
        let out = run_strs(&["store", "ls", "--dir", &dir_arg]).unwrap();
        assert!(out.contains("0 artifact(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_validates_op_and_arguments() {
        let err = run_strs(&["client"]).unwrap_err();
        assert!(
            err.message.contains("available: compile"),
            "{}",
            err.message
        );
        let err = run_strs(&["client", "frobnicate"]).unwrap_err();
        assert!(
            err.message.contains("available: compile"),
            "{}",
            err.message
        );
        let err = run_strs(&["client", "compile"]).unwrap_err();
        assert!(err.message.contains("needs a grammar"), "{}", err.message);
        let err = run_strs(&["client", "parse", "expr"]).unwrap_err();
        assert!(err.message.contains("--input"), "{}", err.message);
        let err = run_strs(&["serve", "--cache-mb", "many"]).unwrap_err();
        assert!(err.message.contains("bad value"), "{}", err.message);
    }

    #[test]
    fn client_without_a_daemon_reports_io_error() {
        // Nothing listens on this port; the client must fail cleanly.
        let err = run_strs(&[
            "client",
            "stats",
            "--addr",
            "127.0.0.1:1",
            "--timeout-ms",
            "300",
        ])
        .unwrap_err();
        assert!(err.message.contains("127.0.0.1:1"), "{}", err.message);
    }

    #[test]
    fn classify_corpus_grammar() {
        let out = run_strs(&["classify", "lalr_not_slr"]).unwrap();
        assert!(out.contains("LALR(1)"), "{out}");
    }

    #[test]
    fn one_shot_commands_reject_threads_flag() {
        for cmd in [
            "analyze",
            "explain",
            "classify",
            "states",
            "table",
            "dot",
            "codegen",
            "sentences",
            "check",
            "profile",
        ] {
            let err = run_strs(&[cmd, "expr", "--threads", "4"]).unwrap_err();
            assert_eq!(err.code, 2, "{cmd}: {}", err.message);
            assert!(
                err.message.starts_with(&format!(
                    "unknown flag \"--threads\" for {cmd} (available: "
                )),
                "{cmd}: {}",
                err.message
            );
        }
        let err = run_strs(&["parse", "expr", "NUM", "--threads", "4"]).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(
            err.message
                .starts_with("unknown flag \"--threads\" for parse"),
            "{}",
            err.message
        );
        // Before the command it is no command at all.
        let err = run_strs(&["--threads", "2", "classify", "expr"]).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("unknown command"), "{}", err.message);
    }

    #[test]
    fn profile_reports_phases_with_high_wall_coverage() {
        // A large corpus grammar, so per-span overhead and inter-phase
        // gaps are negligible next to the real pipeline work.
        let out = run_strs(&["profile", "c_subset"]).unwrap();
        for phase in [
            "parse",
            "lr0.build",
            "relations.build",
            "digraph.reads",
            "digraph.includes",
            "la.union",
        ] {
            assert!(out.contains(phase), "missing phase {phase} in:\n{out}");
        }
        let coverage: f64 = out
            .split("phase coverage ")
            .nth(1)
            .and_then(|rest| rest.split('%').next())
            .expect("coverage line present")
            .parse()
            .expect("coverage is a number");
        assert!(
            (90.0..=100.5).contains(&coverage),
            "phase sum must be within 10% of wall time, got {coverage}%:\n{out}"
        );
    }

    #[test]
    fn profile_trace_out_writes_valid_chrome_json() {
        let dir = std::env::temp_dir().join("lalr_cli_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = run_strs(&["profile", "expr", "--trace-out", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("chrome trace:"), "{out}");

        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::from_str(&text).expect("trace round-trips through serde_json");
        let events = doc
            .get("traceEvents")
            .and_then(serde_json::Value::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut complete = 0usize;
        for event in events {
            let ph = event.get("ph").and_then(serde_json::Value::as_str);
            assert!(matches!(ph, Some("X" | "I")), "unexpected phase {ph:?}");
            assert!(event
                .get("name")
                .and_then(serde_json::Value::as_str)
                .is_some());
            assert!(event.get("ts").is_some());
            if ph == Some("X") {
                complete += 1;
                assert!(event.get("dur").is_some());
            }
        }
        assert!(complete >= 4, "expected pipeline spans, got {complete}");
    }

    #[test]
    fn profile_rejects_unknown_flags() {
        let err = run_strs(&["profile", "expr", "--wat"]).unwrap_err();
        assert!(
            err.message.contains("available: --trace-out"),
            "{}",
            err.message
        );
    }

    #[test]
    fn analyze_reports_digraph_traversal_stats() {
        let out = run_strs(&["analyze", "expr"]).unwrap();
        assert!(out.contains("digraph reads"), "{out}");
        assert!(out.contains("digraph includes"), "{out}");
        assert!(out.contains("max-scc"), "{out}");
    }

    #[test]
    fn analyze_reports_row_layout_and_la_histogram() {
        // expr has 6 terminals (incl. $) → the fixed one-word lane.
        let out = run_strs(&["analyze", "expr"]).unwrap();
        assert!(out.contains("row layout: fixed-64"), "{out}");
        assert!(out.contains("la-set terminal counts:"), "{out}");
        // c_subset has 82 → the two-word lane.
        let wide = run_strs(&["analyze", "c_subset"]).unwrap();
        assert!(wide.contains("row layout: fixed-128"), "{wide}");
    }

    #[test]
    fn profile_reports_kernel_counter_section() {
        let out = run_strs(&["profile", "expr"]).unwrap();
        assert!(out.contains("kernel counters"), "{out}");
        assert!(out.contains("kernel.la.batch_ops"), "{out}");
        assert!(out.contains("kernel.row_words = 1"), "{out}");
    }

    #[test]
    fn stats_metrics_prints_the_daemon_exposition() {
        let config = lalr_service::DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            ..lalr_service::DaemonConfig::default()
        };
        let daemon = lalr_service::EventDaemon::start(config, 1).expect("bind loopback");
        let addr = daemon.addr().to_string();

        let out = run_strs(&["client", "compile", "expr", "--addr", &addr]).unwrap();
        assert!(out.contains("\"ok\":true"), "{out}");

        let metrics = run_strs(&["stats", "--metrics", "--addr", &addr]).unwrap();
        assert!(
            metrics.contains("# TYPE lalr_requests_total counter"),
            "{metrics}"
        );
        assert!(metrics.contains("lalr_requests_total 1"), "{metrics}");
        assert!(
            metrics.contains("lalr_requests_by_op_total{op=\"compile\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("lalr_phase_calls_total{phase=\"lr0.build\"} 1"),
            "{metrics}"
        );

        let _ = run_strs(&["client", "shutdown", "--addr", &addr]);
        daemon.join();
    }

    #[test]
    fn trace_and_top_render_daemon_telemetry() {
        let mut config = lalr_service::DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            ..lalr_service::DaemonConfig::default()
        };
        config.service.tracing = Some(lalr_service::TraceConfig::default());
        let daemon = lalr_service::EventDaemon::start(config, 1).expect("bind loopback");
        let addr = daemon.addr().to_string();
        run_strs(&["client", "compile", "expr", "--addr", &addr]).unwrap();

        // The dump shows the recorder header and one stage-breakdown
        // line per sampled request.
        let out = run_strs(&["trace", "--addr", &addr]).unwrap();
        assert!(out.contains("request traces: 1 shown"), "{out}");
        assert!(out.contains("stages queue="), "{out}");
        assert!(out.contains("compile shard=0"), "{out}");

        // Filters pass through; a bogus op is rejected server-side.
        let out = run_strs(&["trace", "--addr", &addr, "--op", "parse"]).unwrap();
        assert!(out.contains("0 shown"), "{out}");
        let err = run_strs(&["trace", "--addr", &addr, "--op", "frobnicate"]).unwrap_err();
        assert!(err.message.contains("unknown op filter"), "{}", err.message);

        // --chrome-out writes loadable trace-event JSON.
        let dir = std::env::temp_dir().join("lalr_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.json");
        let out = run_strs(&[
            "trace",
            "--addr",
            &addr,
            "--chrome-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("chrome trace:"), "{out}");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(serde_json::Value::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "at least one stage span");

        // One `top` frame renders throughput and the tracing section.
        let frame = run_strs(&["top", "--addr", &addr, "--iterations", "1"]).unwrap();
        assert!(frame.contains("lalrgen top"), "{frame}");
        assert!(frame.contains("requests "), "{frame}");
        assert!(frame.contains("tracing: "), "{frame}");
        assert!(frame.contains("stage us totals:"), "{frame}");

        let _ = run_strs(&["client", "shutdown", "--addr", &addr]);
        daemon.join();
    }

    #[test]
    fn health_op_reports_state_and_quotas() {
        let config = lalr_service::DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections_per_peer: 7,
            rate_limit_per_sec: 100,
            ..lalr_service::DaemonConfig::default()
        };
        let daemon = lalr_service::EventDaemon::start(config, 1).expect("bind loopback");
        let addr = daemon.addr().to_string();

        let out = run_strs(&["client", "health", "--addr", &addr]).unwrap();
        assert!(out.contains("\"state\":\"ok\""), "{out}");
        assert!(out.contains("\"max_connections_per_peer\":7"), "{out}");
        assert!(out.contains("\"rate_limit_per_sec\":100"), "{out}");
        assert!(out.contains("\"admission_rejects\""), "{out}");

        // The top frame surfaces the same health line.
        let frame = run_strs(&["top", "--addr", &addr, "--iterations", "1"]).unwrap();
        assert!(frame.contains("health ok"), "{frame}");
        assert!(frame.contains("peer-quota 7"), "{frame}");
        assert!(frame.contains("rate-limit 100/s"), "{frame}");

        let _ = run_strs(&["client", "shutdown", "--addr", &addr]);
        daemon.join();
    }

    #[test]
    fn trace_reports_disabled_recorder() {
        // Library-default daemon: no tracing config, so the op answers
        // with enabled=false and the CLI says how to arm it.
        let daemon = lalr_service::EventDaemon::start(
            lalr_service::DaemonConfig {
                addr: "127.0.0.1:0".to_string(),
                ..lalr_service::DaemonConfig::default()
            },
            1,
        )
        .expect("bind loopback");
        let addr = daemon.addr().to_string();
        let out = run_strs(&["trace", "--addr", &addr]).unwrap();
        assert!(out.contains("tracing disabled"), "{out}");
        let _ = run_strs(&["client", "shutdown", "--addr", &addr]);
        daemon.join();
    }

    #[test]
    fn analyze_reports_conflicts() {
        let out = run_strs(&["analyze", "dangling_else"]).unwrap();
        assert!(out.contains("conflicts: 1"), "{out}");
        assert!(out.contains("shift/reduce"), "{out}");
    }

    #[test]
    fn explain_names_the_viable_prefix() {
        let out = run_strs(&["explain", "dangling_else"]).unwrap();
        assert!(out.contains("viable prefix"), "{out}");
        assert!(out.contains("shift:"), "{out}");
        let out = run_strs(&["explain", "expr"]).unwrap();
        assert!(out.contains("no LALR(1) conflicts"), "{out}");
    }

    #[test]
    fn states_listing_is_youtput_like() {
        let out = run_strs(&["states", "expr"]).unwrap();
        assert!(out.contains("state 0"));
        assert!(out.contains("reduce"));
        assert!(out.contains("shift"));
        assert!(out.contains("goto"));
        // The f -> NUM reduction carries its LALR look-ahead set.
        assert!(
            out.contains("[$ + * )]") || out.contains("[$ + * ( )]"),
            "{out}"
        );
    }

    #[test]
    fn table_prints_matrix() {
        let out = run_strs(&["table", "expr"]).unwrap();
        assert!(out.contains("state"));
        assert!(out.contains("acc"));
    }

    #[test]
    fn dot_output() {
        let out = run_strs(&["dot", "expr"]).unwrap();
        assert!(out.starts_with("digraph lr0 {"));
    }

    #[test]
    fn codegen_output() {
        let out = run_strs(&["codegen", "expr", "mymod"]).unwrap();
        assert!(out.contains("@generated"));
        assert!(out.contains("mymod"));
    }

    #[test]
    fn sentences_output() {
        let out = run_strs(&["sentences", "expr", "3"]).unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("NUM"));
    }

    #[test]
    fn parse_accepts_and_rejects() {
        let out = run_strs(&["parse", "expr", "1 + 2", "--number", "NUM"]).unwrap();
        assert!(out.starts_with("accepted"));
        let err = run_strs(&["parse", "expr", "1 +", "--number", "NUM"]).unwrap_err();
        assert!(err.message.contains("rejected"));
    }

    #[test]
    fn missing_grammar_file() {
        let err = run_strs(&["analyze", "/no/such/file.g"]).unwrap_err();
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn check_command_runs_case_files() {
        let dir = std::env::temp_dir().join("lalr_cli_check");
        std::fs::create_dir_all(&dir).unwrap();
        let cases = dir.join("expr.cases");
        std::fs::write(
            &cases,
            "# expression cases\n+ NUM + NUM\n+ ( NUM )\n- NUM +\n- + NUM\n",
        )
        .unwrap();
        let out = run_strs(&["check", "expr", cases.to_str().unwrap()]).unwrap();
        assert!(out.contains("4 cases, 0 failures"), "{out}");

        std::fs::write(&cases, "+ NUM +\n").unwrap();
        let err = run_strs(&["check", "expr", cases.to_str().unwrap()]).unwrap_err();
        assert!(err.message.contains("1 failures"), "{}", err.message);
    }

    #[test]
    fn yacc_files_are_loaded_by_extension() {
        let dir = std::env::temp_dir().join("lalr_cli_yacc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("calc.y");
        std::fs::write(
            &path,
            "%token NUM\n%left '+'\n%%\nexpr : expr '+' expr { act(); } | NUM ;\n",
        )
        .unwrap();
        let out = run_strs(&["classify", path.to_str().unwrap()]).unwrap();
        assert!(!out.contains("not LR(1)") || out.contains("LR"), "{out}");
        // Precedence makes the ambiguity resolvable; analysis still runs.
        let out = run_strs(&["table", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("resolved"), "{out}");
    }

    #[test]
    fn grammar_from_file_path() {
        let dir = std::env::temp_dir().join("lalr_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.g");
        std::fs::write(&path, "s : \"a\" ;").unwrap();
        let out = run_strs(&["classify", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("LR(0)"), "{out}");
    }
}
