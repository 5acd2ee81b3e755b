//! `warm_served`: an open loop of warm traffic over persistent TCP
//! connections to an `EventDaemon` whose cache is warmed in set-up.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lalr_core::Parallelism;
use lalr_corpus::sentences;
use lalr_service::protocol::request_to_line;
use lalr_service::{DaemonConfig, EventDaemon, GrammarFormat, ParseTarget, Request, ServiceConfig};
use serde_json::Value;

use crate::cold::Counters;
use crate::inputs::{self, Expected, Rng, Source};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{earley, phases, stats, Args};

/// Reference rate of the open loop, requests per second.
pub const REFERENCE_RPS: f64 = 400.0;
/// Latency limit on p99 that a sustained rate must meet, in ms.
pub const LIMIT_MS: f64 = 50.0;
/// Documents per parse batch.
pub const BATCH: usize = 16;
/// Requests of each op per grammar in the mix (70% parse batches, 12%
/// compile hits, 10% classify hits, 8% compressed tables); the open loop
/// cycles through the shuffled mix.
const MIX: [(Op, usize); 4] = [
    (Op::Parse, 35),
    (Op::Compile, 6),
    (Op::Classify, 5),
    (Op::Table, 4),
];
/// Connections (and client threads).
const CONNS: usize = 2;
/// Samples a p99 needs.
const P99_SAMPLES: f64 = 1000.0;
/// Slices the reference-rate phase is cut into.
const SLICES: usize = 5;

/// The grammars warm traffic uses: the realistic corpus grammars with
/// no LALR(1) conflicts, on which every LR verdict is a language
/// membership the Earley oracle decides.
pub fn grammars() -> Vec<Source> {
    let expected = inputs::expected();
    inputs::realistic()
        .into_iter()
        .filter(|s| expected[&s.name].conflicts == 0)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Parse,
    Compile,
    Classify,
    Table,
}

/// One distinct request of the mix, and the hash of its verified answer.
pub struct Entry {
    pub op: Op,
    pub grammar: usize,
    pub line: String,
    pub answer_hash: u64,
}

/// A persistent connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn open(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Sends one request line and reads its answer line.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// FNV-1a of an answer line.
pub fn hash(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a grammar's answers must contain.
struct Truth {
    source: Source,
    expected: Expected,
    action_entries: usize,
    compressed_entries: usize,
    fingerprint: String,
    /// Documents with the verdict the Earley oracle gave at generation.
    docs: Vec<(String, bool)>,
}

/// Generates `source`'s document pool: valid sentences and seeded
/// single-token mutants, each with its oracle verdict.
pub fn documents(source: &Source, seed: u64) -> Result<Vec<(String, bool)>, String> {
    let g = lalr_grammar::parse_grammar(&source.text).map_err(|e| e.to_string())?;
    let valid = sentences::generate_many(&g, inputs::random_seed(seed, 1), 24, 40);
    let mutants = sentences::mutate_many(&g, &valid, inputs::random_seed(seed, 2), 24);
    let mut docs = Vec::new();
    for s in &valid {
        if !earley::recognizes(&g, s) {
            return Err(format!(
                "{}: a generated sentence is not in the language",
                source.name
            ));
        }
        docs.push((inputs::document(&g, s), true));
    }
    for (_, m) in &mutants {
        docs.push((inputs::document(&g, m), earley::recognizes(&g, m)));
    }
    Ok(docs)
}

/// Checks one answer against the truth; `None` when it is right.
fn wrong(answer: &str, op: Op, truth: &Truth, verdicts: &[bool]) -> Option<String> {
    let v = match serde_json::from_str(answer) {
        Ok(v) => v,
        Err(e) => return Some(format!("unparsable answer: {e}")),
    };
    let get = |k: &str| v.get(k).cloned().unwrap_or(Value::Null);
    let num = |k: &str| get(k).as_u64().map(|n| n as usize);
    if get("ok").as_bool() != Some(true) {
        return Some(format!("error answer: {answer:.200}"));
    }
    let name = &truth.source.name;
    let e = &truth.expected;
    let ok = match op {
        Op::Parse => {
            let docs = get("docs");
            let got: Vec<Option<bool>> = docs
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .map(|d| d.get("accepted").and_then(Value::as_bool))
                .collect();
            let want: Vec<Option<bool>> = verdicts.iter().map(|&b| Some(b)).collect();
            got == want && get("cached").as_bool() == Some(true)
        }
        Op::Compile => {
            get("cached").as_bool() == Some(true)
                && num("states") == Some(e.states)
                && num("conflicts") == Some(e.conflicts)
                && get("class").as_str() == Some(&e.class)
        }
        Op::Classify => {
            get("class").as_str() == Some(&e.class) && num("lalr_conflicts") == Some(e.conflicts)
        }
        Op::Table => {
            num("action_entries") == Some(truth.action_entries)
                && num("compressed_entries") == Some(truth.compressed_entries)
        }
    };
    (!ok).then(|| format!("{name} {op:?}: wrong answer {answer:.200}"))
}

/// A started daemon with its connections, truths and verified mix.
pub struct Setup {
    pub daemon: EventDaemon,
    pub conns: Vec<Conn>,
    pub ring: Vec<Entry>,
    pub names: Vec<String>,
    /// The compile lines that warm a fresh daemon's cache.
    warm_lines: Vec<String>,
}

impl Setup {
    /// Replaces the daemon with a fresh one, warmed with the same
    /// grammars, so the next measurement inherits no traffic history
    /// (every request re-arms an idle timer the event loop keeps until
    /// it expires). Fingerprints are content addresses, so the mix's
    /// requests and their verified answers stay valid.
    pub fn restart(&mut self) -> Result<(), String> {
        let daemon = std::mem::replace(&mut self.daemon, start_daemon()?);
        self.conns.clear();
        stop(daemon);
        for _ in 0..CONNS {
            self.conns.push(Conn::open(self.daemon.addr())?);
        }
        for (c, line) in self.warm_lines.iter().enumerate() {
            self.conns[c % CONNS].call(line)?;
        }
        Ok(())
    }
}

pub fn start_daemon() -> Result<EventDaemon, String> {
    EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            service: ServiceConfig {
                workers: Parallelism::new(2),
                ..ServiceConfig::default()
            },
            ..DaemonConfig::default()
        },
        1,
    )
    .map_err(|e| format!("daemon: {e}"))
}

pub fn compile_line(text: &str) -> String {
    let r = Request::Compile {
        grammar: text.to_string(),
        format: GrammarFormat::Native,
    };
    request_to_line(&r, None) + "\n"
}

/// Starts the daemon, generates the inputs, warms the cache, and sends
/// every distinct request of the mix once, verifying its answer.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let daemon = start_daemon()?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::open(daemon.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let expected = inputs::expected();
    let mut truths = Vec::new();
    for (gi, source) in grammars().into_iter().enumerate() {
        let direct = phases::compile(&source.text);
        let answer = conns[0].call(&compile_line(&source.text))?;
        let v = serde_json::from_str(answer).map_err(|e| e.to_string())?;
        let fingerprint = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("warm-up compile failed: {answer:.200}"))?
            .to_string();
        truths.push(Truth {
            expected: expected[&source.name].clone(),
            action_entries: direct.table.stats().action_entries,
            compressed_entries: direct.compressed.explicit_entries(),
            fingerprint,
            docs: documents(&source, inputs::random_seed(seed, gi as u64))?,
            source,
        });
    }
    // The same share of each op on every grammar whatever the seed; the
    // seed picks the documents and the order.
    let mut rng = Rng::new(seed);
    let mut mix: Vec<(Op, usize)> = (0..truths.len())
        .flat_map(|gi| {
            MIX.iter()
                .flat_map(move |&(op, n)| std::iter::repeat_n((op, gi), n))
        })
        .collect();
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i + 1));
    }
    let mut ring = Vec::with_capacity(mix.len());
    for (op, gi) in mix {
        let t = &truths[gi];
        let grammar = t.source.text.clone();
        let format = GrammarFormat::Native;
        let mut verdicts = Vec::new();
        let request = match op {
            Op::Parse => {
                let mut documents = Vec::with_capacity(BATCH);
                for _ in 0..BATCH {
                    let (doc, verdict) = &t.docs[rng.below(t.docs.len())];
                    documents.push(doc.clone());
                    verdicts.push(*verdict);
                }
                let fp = lalr_service::fingerprint::parse_fingerprint(&t.fingerprint)
                    .ok_or("unparsable fingerprint")?;
                let target = ParseTarget::Fingerprint(fp);
                Request::Parse {
                    target,
                    documents,
                    recover: false,
                    sync: Vec::new(),
                }
            }
            Op::Compile => Request::Compile { grammar, format },
            Op::Classify => Request::Classify { grammar, format },
            Op::Table => Request::Table {
                grammar,
                format,
                compressed: true,
            },
        };
        let line = request_to_line(&request, None) + "\n";
        let answer = conns[0].call(&line)?;
        if let Some(why) = wrong(answer, op, t, &verdicts) {
            return Err(format!("set-up answer: {why}"));
        }
        ring.push(Entry {
            op,
            grammar: gi,
            answer_hash: hash(answer),
            line,
        });
    }
    // Both connections have carried a request before timing starts.
    conns[1].call(&ring[0].line)?;
    Ok(Setup {
        daemon,
        conns,
        ring,
        names: truths.iter().map(|t| t.source.name.clone()).collect(),
        warm_lines: truths
            .iter()
            .map(|t| compile_line(&t.source.text))
            .collect(),
    })
}

/// One answered (or failed) request of an open-loop step.
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    /// Arrival index in the schedule.
    pub at: usize,
    /// From scheduled send to answer.
    pub lat_ms: f64,
    /// From scheduled send to actual send.
    pub late_ms: f64,
    pub ok: bool,
}

/// Lateness at which a step gives up: the backlog is growing.
const ABORT_LATE_MS: f64 = 20.0 * LIMIT_MS;

/// Sends `rate × seconds` requests on a fixed schedule, arrival `i` on
/// connection `i % CONNS`, each timed from its scheduled send.
pub fn open_loop(
    conns: &mut [Conn],
    ring: &[Entry],
    rate: f64,
    seconds: f64,
    first_slot: usize,
    tracer: Option<&Tracer>,
) -> Vec<Obs> {
    let n = (rate * seconds).round() as usize;
    let start = Instant::now() + Duration::from_millis(2);
    let k = conns.len();
    let mut all = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(n / k + 1);
                    for i in (c..n).step_by(k) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let slot = (first_slot + i) % ring.len();
                        let ok = match conn.call(&ring[slot].line) {
                            Ok(answer) => hash(answer) == ring[slot].answer_hash,
                            Err(_) => false,
                        };
                        let done = Instant::now();
                        if let Some(t) = tracer {
                            t.record("daemon.request", None, (first_slot + i) as u64, sent, done);
                        }
                        let late_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
                        mine.push(Obs {
                            at: i,
                            lat_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                            late_ms,
                            ok,
                        });
                        if late_ms > ABORT_LATE_MS {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
    });
    all
}

/// Whether a step met the limit with no growing backlog; the p99 it
/// was judged on.
pub fn sustained(obs: &[Obs], expected: usize) -> (bool, f64) {
    if obs.len() < expected || obs.iter().any(|o| !o.ok) {
        return (false, f64::INFINITY);
    }
    let mut lat: Vec<f64> = obs.iter().map(|o| o.lat_ms).collect();
    let p99 = match stats::percentile(&mut lat, 99.0) {
        Ok(p) => p.value,
        Err(_) => return (false, f64::INFINITY),
    };
    // Backlog: the last tenth of the schedule must not run late.
    let mut by_due: Vec<&Obs> = obs.iter().collect();
    by_due.sort_by_key(|o| o.at);
    let tenth = obs.len() / 10;
    let mut tail_late: Vec<f64> = by_due[obs.len() - tenth..]
        .iter()
        .map(|o| o.late_ms)
        .collect();
    let backlog = stats::median(&mut tail_late);
    (p99 <= LIMIT_MS && backlog <= LIMIT_MS / 2.0, p99)
}

/// A measured warm run.
pub struct WarmRun {
    pub setup_s: f64,
    pub names: Vec<String>,
    /// Op and grammar of each request of the mix.
    pub ring_ops: Vec<(Op, usize)>,
    /// Reference-rate answers, per slice.
    pub reference: Vec<Vec<Obs>>,
    /// Search steps: rate, sustained, p99, answers, wrong answers.
    pub steps: Vec<(f64, bool, f64, usize, u64)>,
    pub max_rate: f64,
    /// Cache and queue counters over the reference-rate phase.
    pub counters: Counters,
}

/// The daemon's cache and queue counters, asked over `conn`.
pub fn counters(conn: &mut Conn) -> Result<Counters, String> {
    let line = request_to_line(&Request::Stats, None) + "\n";
    let answer = conn.call(&line)?;
    let v = serde_json::from_str(answer).map_err(|e| e.to_string())?;
    let c = v.get("cache").ok_or("stats without a cache")?;
    let n = |k: &str| c.get(k).and_then(Value::as_u64).unwrap_or(0);
    Ok(Counters {
        hits: n("hits"),
        misses: n("misses"),
        evictions: n("evictions"),
        shed: v.get("shed").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// Stops a daemon and waits for it.
pub fn stop(daemon: EventDaemon) {
    daemon.stop();
    daemon.join();
}

/// The search for the highest sustained rate: from `4 × REFERENCE_RPS`,
/// double until a step fails, then bisect geometrically. Each step sends
/// enough requests for a p99; a failed step is tried once more before
/// it counts, so one burst of host noise does not send the search down.
struct Search {
    lo: Option<f64>,
    hi: Option<f64>,
    slot: usize,
    steps: Vec<(f64, bool, f64, usize, u64)>,
}

impl Search {
    fn new(reference_ok: bool, slot: usize) -> Search {
        let (lo, hi) = if reference_ok {
            (Some(REFERENCE_RPS), None)
        } else {
            (None, Some(REFERENCE_RPS))
        };
        Search {
            lo,
            hi,
            slot,
            steps: Vec::new(),
        }
    }

    fn next_rate(&self) -> f64 {
        match (self.lo, self.hi) {
            (Some(l), None) if self.steps.is_empty() => 4.0 * l,
            (Some(l), None) => 2.0 * l,
            (Some(l), Some(h)) => (l * h).sqrt(),
            (None, Some(h)) => h / 2.0,
            (None, None) => unreachable!("one side is always set"),
        }
    }

    fn step(&mut self, s: &mut Setup, rate: f64) -> bool {
        let seconds = (P99_SAMPLES * 1.05 / rate).max(0.5);
        if let Err(e) = s.restart() {
            self.steps.push((rate, false, f64::INFINITY, 0, 1));
            eprintln!("perfbench: restarting the daemon failed: {e}");
            return false;
        }
        let obs = open_loop(&mut s.conns, &s.ring, rate, seconds, self.slot, None);
        self.slot += obs.len();
        let (pass, p99) = sustained(&obs, (rate * seconds).round() as usize);
        let wrong = obs.iter().filter(|o| !o.ok).count() as u64;
        self.steps.push((rate, pass, p99, obs.len(), wrong));
        pass
    }

    /// Runs steps while `budget` seconds allow another one.
    fn run(&mut self, s: &mut Setup, budget: f64) {
        let start = Instant::now();
        loop {
            let rate = self.next_rate();
            let seconds = (P99_SAMPLES * 1.05 / rate).max(0.5);
            if start.elapsed().as_secs_f64() + seconds > budget || rate < 1.0 {
                return;
            }
            let pass = self.step(s, rate) || self.step(s, rate);
            if pass {
                self.lo = Some(rate);
            } else {
                self.hi = Some(rate);
            }
        }
    }
}

/// Two phases, each on a daemon of its own, set up afresh, so neither
/// inherits the other's traffic: the reference rate for 55% of the
/// window, cut into slices, and the search for the highest sustained
/// rate for 45%. One more set-up is timed without traffic, and the median
/// of the three set-up times is `setup_s`.
pub fn run(args: &Args) -> Result<WarmRun, String> {
    let mut setups = Vec::new();
    let mut counters_total = Counters::default();
    let mut phase = |f: &mut dyn FnMut(&mut Setup)| -> Result<Setup, String> {
        let start = Instant::now();
        let mut s = setup(args.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        let (addr, before) = (s.daemon.addr(), counters(&mut s.conns[0])?);
        f(&mut s);
        // The search restarts its daemon per step; only an unbroken
        // daemon's counters are comparable.
        if s.daemon.addr() == addr {
            counters_total = counters_total.plus(counters(&mut s.conns[0])?.since(before));
        }
        s.conns.clear();
        Ok(s)
    };
    let idle = phase(&mut |_| {})?;
    stop(idle.daemon);

    let seconds = 0.55 * args.seconds;
    let mut all = Vec::new();
    let reference_setup = phase(&mut |s| {
        all = open_loop(&mut s.conns, &s.ring, REFERENCE_RPS, seconds, 0, None);
    })?;
    stop(reference_setup.daemon);
    let (reference_ok, _) = sustained(&all, (REFERENCE_RPS * seconds).round() as usize);
    let per_slice = all.len().div_ceil(SLICES).max(1);
    let mut reference = vec![Vec::new(); SLICES];
    for o in &all {
        reference[(o.at / per_slice).min(SLICES - 1)].push(*o);
    }
    let mut search = Search::new(reference_ok, 0);
    let search_setup = phase(&mut |s| search.run(s, 0.45 * args.seconds))?;
    stop(search_setup.daemon);

    Ok(WarmRun {
        setup_s: stats::median(&mut setups),
        names: reference_setup.names,
        ring_ops: reference_setup
            .ring
            .iter()
            .map(|e| (e.op, e.grammar))
            .collect(),
        reference,
        steps: search.steps,
        max_rate: search.lo.unwrap_or(0.0),
        counters: counters_total,
    })
}

impl WarmRun {
    /// The end-to-end metrics.
    pub fn report(&self, out: &mut Outcome) -> Result<(), String> {
        let reference: Vec<Obs> = self.reference.iter().flatten().copied().collect();
        let step_obs: usize = self.steps.iter().map(|s| s.3).sum();
        let step_failed = self.steps.iter().filter(|s| !s.1).count();
        let ref_failed = reference.iter().filter(|o| !o.ok).count() as u64;
        let step_wrong: u64 = self.steps.iter().map(|s| s.4).sum();
        out.attempted = (reference.len() + step_obs) as u64;
        // A step above the sustained rate misses the limit by design;
        // what counts against the run is a wrong or failed answer.
        out.failed = ref_failed + step_wrong;

        let mut lat: Vec<f64> = reference.iter().map(|o| o.lat_ms).collect();
        let pooled = stats::percentile(&mut lat, 99.0)?;
        let slice_lat = |r: &Vec<Obs>| r.iter().map(|o| o.lat_ms).collect::<Vec<_>>();
        let mut p50s: Vec<f64> = self
            .reference
            .iter()
            .map(|r| stats::median(&mut slice_lat(r)))
            .collect();
        let p50 = stats::median(&mut p50s);
        // A slice at the reference rate holds 1,100 answers in a 25-second
        // window: enough for a p99 per slice. Shorter windows fall back to
        // the pooled p99.
        let mut p99s = self
            .reference
            .iter()
            .map(|r| stats::percentile(&mut slice_lat(r), 99.0).map(|p| p.value))
            .collect::<Result<Vec<f64>, String>>()
            .unwrap_or_default();
        let p99 = if p99s.is_empty() {
            pooled.value
        } else {
            stats::median(&mut p99s)
        };
        let mut late: Vec<f64> = reference.iter().map(|o| o.late_ms).collect();
        let late99 = stats::percentile(&mut late, 99.0)?;
        out.note(format!(
            "reference rate {REFERENCE_RPS} req/s in {} slices (n={}): p50 per slice {:.4?}, \
             p99 per slice {:.4?}, pooled {}; late {}",
            self.reference.len(),
            lat.len(),
            p50s,
            p99s,
            pooled.label(),
            late99.label()
        ));
        for (rate, pass, p99, n, _) in &self.steps {
            out.note(format!(
                "step {rate:>9.2} req/s: {} p99={p99:.4} ms (n={n})",
                if *pass { "sustained" } else { "not sustained" }
            ));
        }
        if self.max_rate <= 0.0 {
            return Err("not even the reference rate was sustained".into());
        }

        // Compile hits within the reference-rate traffic, per slice.
        let compile_ms = |obs: &[Obs]| -> Vec<Vec<f64>> {
            let mut per = vec![Vec::new(); self.names.len()];
            for o in obs {
                let (op, g) = self.ring_ops[o.at % self.ring_ops.len()];
                if op == Op::Compile {
                    per[g].push(o.lat_ms);
                }
            }
            per
        };
        let mut geomeans = Vec::new();
        for slice in &self.reference {
            let mut per = compile_ms(slice);
            if per.iter().any(Vec::is_empty) {
                return Err("a slice at the reference rate missed a grammar's compile".into());
            }
            let medians: Vec<f64> = per.iter_mut().map(|t| stats::median(t)).collect();
            geomeans.push(stats::geomean(&medians));
        }
        out.note(format!("{:<22} {:>6} {:>12}", "grammar", "n", "compile_ms"));
        let mut per = compile_ms(&reference);
        for (name, times) in self.names.iter().zip(per.iter_mut()) {
            out.note(format!(
                "{name:<22} {:>6} {:>12.4}",
                times.len(),
                stats::median(times)
            ));
        }
        let mut hits: Vec<f64> = per.into_iter().flatten().collect();
        let compile_tail = stats::tail(&mut hits)?;
        out.note(format!(
            "compile-hit latency {}; geomean per slice {geomeans:.4?}",
            compile_tail.label()
        ));
        out.metric("setup_s", self.setup_s, "s");
        out.metric("compile_geomean_ms", stats::median(&mut geomeans), "ms");
        out.metric("compile_p99_ms", compile_tail.value, "ms");
        // At the highest sustained rate, the mix's share of compile hits.
        let total: usize = MIX.iter().map(|m| m.1).sum();
        let compiles: usize = MIX.iter().filter(|m| m.0 == Op::Compile).map(|m| m.1).sum();
        out.metric(
            "compiles_per_s",
            self.max_rate * compiles as f64 / total as f64,
            "1/s",
        );
        out.metric("request_p50_ms", p50, "ms");
        out.metric("request_p99_ms", p99, "ms");
        out.metric("max_rate_rps", self.max_rate, "req/s");
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
        out.note(format!(
            "failed_share = {} ({} of {}); {} search step(s) above the sustained rate",
            report::share(out.failed, out.attempted),
            out.failed,
            out.attempted,
            step_failed
        ));
        out.note(self.counters.line());
        Ok(())
    }
}
