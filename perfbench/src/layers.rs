//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Three parts, all recorded as spans from the benchmark's own calls:
//! the workload itself, run untraced and traced in turn (their ratio is
//! the tracing overhead); a battery that times each layer's public entry
//! points on the workload's fixed grammars; and the deterministic counts.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lalr_bitset::BitMatrix;
use lalr_corpus::sentences;
use lalr_service::protocol::{request_to_line, response_to_line};
use lalr_service::{GrammarFormat, ParseTarget, Request, Response, Service, ServiceConfig};

use crate::cold::{self, Counters};
use crate::counts::{self, Counts};
use crate::inputs::{self, Rng, Source};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::warm::{self, Conn};
use crate::{phases, stats, Args};

/// Row widths, in words, whose union cost is always reported.
const WIDTHS: [usize; 3] = [1, 2, 65];

/// What the traced workload arm saw.
struct Arm {
    overhead: f64,
    late_p99_ms: f64,
    counters: Counters,
}

/// Runs the workload four times for an eighth of the window each,
/// untraced, traced, traced, untraced (so drift cancels), and compares.
fn workload_arms(args: &Args, tracer: &Tracer, out: &mut Outcome) -> Result<Arm, String> {
    let seconds = args.seconds / 8.0;
    let order = [None, Some(tracer), Some(tracer), None];
    if args.workload == "warm_served" {
        let mut s = warm::setup(args.seed)?;
        let before = warm::counters(&mut s.conns[0])?;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for t in order {
            let first = plain.len() + traced.len();
            let obs = warm::open_loop(
                &mut s.conns,
                &s.ring,
                warm::REFERENCE_RPS,
                seconds,
                first,
                t,
            );
            if t.is_some() { &mut traced } else { &mut plain }.extend(obs);
        }
        let after = warm::counters(&mut s.conns[0])?;
        let warm::Setup { daemon, conns, .. } = s;
        drop(conns);
        warm::stop(daemon);
        out.attempted += (plain.len() + traced.len()) as u64;
        out.failed += plain.iter().chain(&traced).filter(|o| !o.ok).count() as u64;
        let p50 = |obs: &[warm::Obs]| {
            stats::median(&mut obs.iter().map(|o| o.lat_ms).collect::<Vec<_>>())
        };
        let mut late: Vec<f64> = traced.iter().map(|o| o.late_ms).collect();
        let late = stats::tail(&mut late)?;
        out.note(format!(
            "traced arms: request p50 {:.4} ms vs {:.4} untraced; late {}",
            p50(&traced),
            p50(&plain),
            late.label()
        ));
        return Ok(Arm {
            overhead: p50(&traced) / p50(&plain),
            late_p99_ms: late.value,
            counters: after.since(before),
        });
    }
    let runs: Vec<(bool, cold::ColdRun)> = order
        .into_iter()
        .map(|t| {
            let run = match args.workload.as_str() {
                "cold_compile" => cold::cold_compile(args, seconds, t),
                _ => cold::cold_scaling(args, seconds, t),
            };
            (t.is_some(), run)
        })
        .collect();
    for (_, run) in &runs {
        out.attempted += run.len() as u64;
        out.failed += run.verify(args, out);
    }
    let (traced, plain): (Vec<_>, Vec<_>) = runs.iter().partition(|(t, _)| *t);
    let traced: Vec<&cold::ColdRun> = traced.into_iter().map(|(_, r)| r).collect();
    let plain: Vec<&cold::ColdRun> = plain.into_iter().map(|(_, r)| r).collect();
    // Per grammar, traced median over untraced median; geometric mean.
    let (a, b) = (
        cold::ColdRun::group_medians(&traced),
        cold::ColdRun::group_medians(&plain),
    );
    let ratios: Vec<f64> = a
        .iter()
        .zip(&b)
        .filter_map(|(x, y)| Some(x.as_ref()? / y.as_ref()?))
        .collect();
    let late = cold::ColdRun::late_tail(&traced);
    out.note(format!(
        "traced arms: per-grammar compile time {:.4}x untraced over {} grammars; generator delay {}",
        stats::geomean(&ratios),
        ratios.len(),
        late.label()
    ));
    Ok(Arm {
        overhead: stats::geomean(&ratios),
        late_p99_ms: late.value,
        counters: traced
            .iter()
            .fold(Counters::default(), |acc, r| acc.plus(r.counters)),
    })
}

/// Median cost of one `Row ∪= Row` at `words` words per row, in ns.
fn union_ns(words: usize) -> f64 {
    let rows = 512;
    let mut m = BitMatrix::new(rows, words * 64);
    let mut rng = Rng::new(words as u64);
    for r in 0..rows {
        for _ in 0..4 {
            m.set(r, rng.below(words * 64));
        }
    }
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| (rng.below(rows), rng.below(rows)))
        .collect();
    let ops = (400_000 / words).max(20_000);
    let mut per_op = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        let mut changed = 0usize;
        for k in 0..ops {
            let (d, s) = pairs[k % pairs.len()];
            changed += usize::from(m.union_rows(d, s));
        }
        std::hint::black_box(changed);
        per_op.push(start.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
    stats::median(&mut per_op)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn call(service: &Service, request: Request) -> (Response, Duration) {
    let start = Instant::now();
    let response = service.call(request, None);
    (response, start.elapsed())
}

fn compile_request(text: &str) -> Request {
    Request::Compile {
        grammar: text.to_string(),
        format: GrammarFormat::Native,
    }
}

/// Per-grammar medians of the battery, µs unless named otherwise.
#[derive(Default)]
struct Row {
    phases: [f64; 6],
    reads: f64,
    includes: f64,
    row_ops: u64,
    words: usize,
    served: f64,
    overhead: f64,
    hit: f64,
    encode_table: f64,
    encode_parse: f64,
    bytes_table: usize,
    bytes_parse: usize,
    wire: f64,
    /// Whether the service's cache keeps this grammar's artifact.
    cached: bool,
}

/// The layers a warm request crosses, on a grammar the cache keeps:
/// encoding a compressed-table and a parse-batch answer, and the wire
/// (the same warm requests in process and over TCP, at a low rate).
#[allow(clippy::too_many_arguments)]
fn warm_layers(
    source: &Source,
    gi: usize,
    text: &str,
    docs: &[String],
    service: &Service,
    conn: &mut Conn,
    tracer: &Tracer,
    row: &mut Row,
) -> Result<(), String> {
    let table = Request::Table {
        grammar: text.to_string(),
        format: GrammarFormat::Native,
        compressed: true,
    };
    let parse = Request::Parse {
        target: ParseTarget::Text {
            grammar: text.to_string(),
            format: GrammarFormat::Native,
        },
        documents: docs.to_vec(),
        recover: false,
        sync: Vec::new(),
    };
    for (request, encode, bytes) in [
        (table, &mut row.encode_table, &mut row.bytes_table),
        (parse, &mut row.encode_parse, &mut row.bytes_parse),
    ] {
        let (response, _) = call(service, request);
        if !response.is_ok() {
            return Err(format!("{}: {response:?}", source.name));
        }
        let mut times = Vec::new();
        for _ in 0..7 {
            let start = Instant::now();
            let line = response_to_line(&response);
            let end = Instant::now();
            tracer.record("protocol.encode", None, gi as u64, start, end);
            *bytes = line.len();
            times.push(us(end - start));
        }
        *encode = stats::median(&mut times);
    }

    // Wire: the same warm requests in process and over TCP, at a low rate.
    let answer = conn.call(&warm::compile_line(text))?;
    let fingerprint = serde_json::from_str(answer)
        .ok()
        .and_then(|v| {
            v.get("fingerprint")
                .and_then(|f| f.as_str())
                .map(str::to_string)
        })
        .ok_or_else(|| format!("{}: daemon compile failed", source.name))?;
    let fp = lalr_service::fingerprint::parse_fingerprint(&fingerprint).ok_or("bad fingerprint")?;
    let by_fp = Request::Parse {
        target: ParseTarget::Fingerprint(fp),
        documents: docs.to_vec(),
        recover: false,
        sync: Vec::new(),
    };
    for request in [compile_request(text), by_fp] {
        let line = request_to_line(&request, None) + "\n";
        let (mut local, mut remote) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            let (response, took) = call(service, request.clone());
            if !response.is_ok() {
                return Err(format!("{}: {response:?}", source.name));
            }
            local.push(us(took));
            std::thread::sleep(Duration::from_millis(1));
            let start = Instant::now();
            conn.call(&line)?;
            let end = Instant::now();
            tracer.record("daemon.request", None, gi as u64, start, end);
            remote.push(us(end - start));
            std::thread::sleep(Duration::from_millis(1));
        }
        row.wire += stats::median(&mut remote) - stats::median(&mut local);
    }

    Ok(())
}

/// Times every layer's entry points on one grammar.
fn battery(
    source: &Source,
    gi: usize,
    service: &Service,
    conn: &mut Conn,
    tracer: &Tracer,
) -> Result<(Row, usize, usize, f64), String> {
    let mut phase_us: Vec<Vec<f64>> = vec![Vec::new(); 6];
    let (mut reads, mut includes) = (Vec::new(), Vec::new());
    let (mut served, mut overhead, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut row = Row::default();
    let mut last = None;
    let mut rep = 0;
    while rep < 3 || (rep < 15 && started.elapsed() < Duration::from_millis(500)) {
        let req = (gi * 100 + rep) as u64;
        let d = phases::compile(&source.text);
        let root = tracer.record(
            "compile.direct",
            None,
            req,
            d.costs[0].start,
            d.costs[5].end,
        );
        for (p, cost) in d.costs.iter().enumerate() {
            tracer.record(phases::PHASES[p], Some(root), req, cost.start, cost.end);
            phase_us[p].push(us(cost.time()));
        }
        let [r, i] = phases::digraph_passes(&d.relations);
        let root = tracer.record("digraph.passes", None, req, r.start, i.end);
        tracer.record("digraph.reads", Some(root), req, r.start, r.end);
        tracer.record("digraph.includes", Some(root), req, i.start, i.end);
        reads.push(us(r.time()));
        includes.push(us(i.time()));

        // The same renamed text served cold, compiled directly, then
        // served again from the cache.
        let text = source.renamed(&format!("L{rep}"));
        let start = Instant::now();
        let (response, took) = call(service, compile_request(&text));
        if !matches!(&response, Response::Compile(c) if !c.cached) {
            return Err(format!(
                "{}: served compile was not cold: {response:?}",
                source.name
            ));
        }
        tracer.record("service.compile", None, req, start, start + took);
        let direct = phases::artifact_compile(&text);
        tracer.record("artifact.compile", None, req, direct.start, direct.end);
        served.push(us(took));
        overhead.push(us(took) - us(direct.time()));
        // An artifact over the cache's byte budget is never kept: the
        // repeat compiles again, and the warm layers cannot be measured.
        let start = Instant::now();
        let (response, took) = call(service, compile_request(&text));
        if let Response::Compile(c) = &response {
            if c.cached {
                tracer.record("service.hit", None, req, start, start + took);
                hit.push(us(took));
            }
        }
        last = Some((d, text));
        rep += 1;
    }
    for (p, times) in phase_us.iter_mut().enumerate() {
        row.phases[p] = stats::median(times);
    }
    row.reads = stats::median(&mut reads);
    row.includes = stats::median(&mut includes);
    row.served = stats::median(&mut served);
    row.overhead = stats::median(&mut overhead);
    row.cached = !hit.is_empty();
    row.hit = stats::median(&mut hit);
    let (d, text) = last.expect("at least one repetition");
    let [r_ops, i_ops] = phases::digraph_row_ops(&d.relations);
    row.row_ops = r_ops + i_ops;
    row.words = phases::row_words(d.grammar.terminal_count());

    let docs: Vec<String> = sentences::generate_many(&d.grammar, 7, warm::BATCH, 40)
        .iter()
        .map(|s| inputs::document(&d.grammar, s))
        .collect();
    if row.cached {
        warm_layers(source, gi, &text, &docs, service, conn, tracer, &mut row)?;
    }

    // Runtime: the LR parser over the documents, for at least 50 ms.
    let start = Instant::now();
    let (mut parsed, mut tokens) = (0usize, 0usize);
    while start.elapsed() < Duration::from_millis(50) {
        let (_, t) = phases::parse_documents(&d.table, &docs);
        parsed += docs.len();
        tokens += t;
    }
    tracer.record("runtime.parse", None, gi as u64, start, Instant::now());
    Ok((row, parsed, tokens, start.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new();
    let arm = workload_arms(args, &tracer, out)?;

    let sources = counts::sources(&args.workload);
    let service = Service::new(ServiceConfig::default());
    let daemon = warm::start_daemon()?;
    let mut conn = Conn::open(daemon.addr())?;
    let mut rows = Vec::new();
    let (mut docs, mut tokens, mut parse_s) = (0usize, 0usize, 0.0);
    for (gi, source) in sources.iter().enumerate() {
        let (row, d, t, s) = battery(source, gi, &service, &mut conn, &tracer)?;
        rows.push(row);
        docs += d;
        tokens += t;
        parse_s += s;
    }
    drop(conn);
    warm::stop(daemon);
    drop(service);

    let mut widths: Vec<usize> = WIDTHS.to_vec();
    widths.extend(rows.iter().map(|r| r.words));
    widths.sort_unstable();
    widths.dedup();
    let union: BTreeMap<usize, f64> = widths.iter().map(|&w| (w, union_ns(w))).collect();

    out.note(format!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "grammar (median us)",
        "parse",
        "lr0",
        "relations",
        "dp",
        "classify",
        "tables",
        "served",
        "classify%"
    ));
    for (source, r) in sources.iter().zip(&rows) {
        let p = r.phases;
        out.note(format!(
            "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.1}%",
            source.name,
            p[0],
            p[1],
            p[2],
            p[3],
            p[4],
            p[5],
            r.served,
            100.0 * p[4] / r.served
        ));
    }
    let classify: f64 = rows.iter().map(|r| r.phases[4]).sum();
    let served: f64 = rows.iter().map(|r| r.served).sum();
    out.note(format!(
        "classify is {:.1}% of the served compile over these grammars",
        100.0 * classify / served
    ));
    for (source, r) in sources.iter().zip(&rows) {
        if !r.cached {
            out.note(format!(
                "{}: the artifact exceeds the cache's byte budget and is never kept; \
                 hit, protocol and wire layers skipped",
                source.name
            ));
        }
    }
    out.note("span self time (us), summed over the run:");
    for (name, (n, self_us)) in tracer.self_times() {
        out.note(format!("  {name:<20} {n:>7} spans {self_us:>14.1}"));
    }
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let path = format!(".bench_out/spans-{}-{}.json", args.workload, args.seed);
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
    out.note(format!("spans written to {path}"));

    let sum = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
    for (p, name) in phases::PHASES.iter().enumerate() {
        out.metric(format!("{name}_us"), sum(&|r| r.phases[p]), "us");
    }
    let pass_us = sum(&|r| r.reads + r.includes);
    let row_ops = rows.iter().map(|r| r.row_ops).sum::<u64>() as f64;
    let kernel_ns = rows
        .iter()
        .map(|r| r.row_ops as f64 * union[&r.words])
        .sum::<f64>();
    out.metric("digraph.reads_us", sum(&|r| r.reads), "us");
    out.metric("digraph.includes_us", sum(&|r| r.includes), "us");
    out.metric(
        "digraph.ns_per_row_op",
        pass_us * 1e3 / row_ops.max(1.0),
        "ns",
    );
    out.metric("digraph.efficiency", kernel_ns / (pass_us * 1e3), "ratio");
    for w in WIDTHS {
        out.metric(format!("bitset.union_ns.w{w}"), union[&w], "ns");
    }
    out.metric("service.overhead_us", sum(&|r| r.overhead), "us");
    out.metric("service.hit_us", sum(&|r| r.hit), "us");
    out.metric("service.cache_hit_ratio", arm.counters.hit_ratio(), "ratio");
    out.metric("service.evictions", arm.counters.evictions as f64, "count");
    out.metric("service.shed", arm.counters.shed as f64, "count");
    out.metric("protocol.encode_us.table", sum(&|r| r.encode_table), "us");
    out.metric("protocol.encode_us.parse", sum(&|r| r.encode_parse), "us");
    out.metric(
        "protocol.response_bytes.table",
        sum(&|r| r.bytes_table as f64),
        "bytes",
    );
    out.metric(
        "protocol.response_bytes.parse",
        sum(&|r| r.bytes_parse as f64),
        "bytes",
    );
    out.metric("net.wire_us", sum(&|r| r.wire), "us");
    out.metric("runtime.tokens_per_s", tokens as f64 / parse_s, "1/s");
    out.metric("runtime.docs_per_s", docs as f64 / parse_s, "1/s");
    out.metric("bench.late_p99_ms", arm.late_p99_ms, "ms");
    out.metric("bench.trace_overhead", arm.overhead, "ratio");
    Ok(())
}

/// The per-layer count metrics, summed over the workload's grammars.
pub fn count_metrics(all: &BTreeMap<String, Counts>, out: &mut Outcome) {
    let sum = |keys: &[&str]| -> f64 {
        let idx: Vec<usize> = keys
            .iter()
            .map(|k| {
                counts::KEYS
                    .iter()
                    .position(|c| c == k)
                    .expect("known count")
            })
            .collect();
        all.values()
            .map(|c| idx.iter().map(|&i| c[i]).sum::<u64>())
            .sum::<u64>() as f64
    };
    out.metric("automata.lr0_states", sum(&["lr0_states"]), "count");
    out.metric("automata.lr0_allocs", sum(&["allocs.lr0"]), "count");
    out.metric("core.reads_edges", sum(&["reads_edges"]), "count");
    out.metric("core.includes_edges", sum(&["includes_edges"]), "count");
    out.metric("core.lookback_edges", sum(&["lookback_edges"]), "count");
    out.metric(
        "core.dp_allocs",
        sum(&["allocs.relations", "allocs.dp"]),
        "count",
    );
    out.metric(
        "digraph.row_ops",
        sum(&["reads_row_ops", "includes_row_ops"]),
        "count",
    );
    out.metric("core.lr1_states", sum(&["lr1_states"]), "count");
    out.metric("core.classify_allocs", sum(&["allocs.classify"]), "count");
    out.metric("tables.cells", sum(&["table_cells"]), "count");
    out.metric(
        "tables.compressed_entries",
        sum(&["compressed_entries"]),
        "count",
    );
    out.metric("tables.allocs", sum(&["allocs.tables"]), "count");
}
