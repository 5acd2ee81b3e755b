//! The two cold-compile workloads: closed loops of `Request::Compile`
//! through an in-process `Service`, every grammar new to its cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lalr_service::{GrammarFormat, Request, Response, Service, ServiceConfig, StatsSnapshot};

use crate::inputs::{self, Expected, Source};
use crate::report::{self, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{phases, Args};

/// What a compile response must equal.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// The row of `expected.tsv` for this fixed grammar.
    Fixed(usize),
    /// The LR(1)-merge oracle on the `i`-th random grammar of the run.
    Random(u64),
}

struct Planned {
    group: usize,
    text: String,
    check: Check,
}

struct Sample {
    group: usize,
    /// When it was sent, in seconds since the window opened.
    sent_s: f64,
    ms: f64,
    /// Gap between this client's previous answer and this send: the
    /// generator's own delay.
    late_ms: f64,
    check: Check,
    answer: Result<(usize, usize, String, bool), String>,
}

/// A measured closed loop plus the service state around it.
pub struct ColdRun {
    pub names: Vec<String>,
    samples: Vec<Sample>,
    /// The window's length, and the time to its last answer.
    window_s: f64,
    pub wall_s: f64,
    pub setup_s: f64,
    /// Cache and queue counters over the measured window only.
    pub counters: Counters,
}

/// The service's cache and queue counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub shed: u64,
}

impl Counters {
    pub fn of(stats: &StatsSnapshot) -> Counters {
        let cache = stats.cache.unwrap_or_default();
        Counters {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            shed: stats.shed,
        }
    }

    /// What happened since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            shed: self.shed - before.shed,
        }
    }

    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            shed: self.shed + other.shed,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "cache over the window: {} hits, {} misses, {} evictions; {} shed",
            self.hits, self.misses, self.evictions, self.shed
        )
    }

    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Setups per run; the reported set-up time is their median.
const SETUPS: usize = 5;
/// Time slices of a `cold_compile` window.
const SLICES: usize = 5;
/// Every this-many-th `cold_compile` request is a random grammar.
const RANDOM_EVERY: usize = 4;

fn compile(service: &Service, text: String) -> Result<(usize, usize, String, bool), String> {
    match service.call(
        Request::Compile {
            grammar: text,
            format: GrammarFormat::Native,
        },
        None,
    ) {
        Response::Compile(c) => Ok((c.states, c.conflicts, c.class, c.cached)),
        other => Err(format!("{other:?}")),
    }
}

/// Starts the default service and warms the process (not its cache: the
/// warm-up grammars never recur) on `warmup` texts.
fn setup(warmup: &[String]) -> Service {
    let service = Service::new(ServiceConfig::default());
    for text in warmup {
        compile(&service, text.clone()).expect("warm-up compile");
    }
    service
}

fn closed_loop(
    service: &Service,
    clients: usize,
    seconds: f64,
    plan: &(dyn Fn(usize) -> Planned + Sync),
    tracer: Option<&Tracer>,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let last_done = Mutex::new(start);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut free = Instant::now();
                while start.elapsed().as_secs_f64() < seconds {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let planned = plan(i);
                    let sent = Instant::now();
                    let answer = compile(service, planned.text);
                    let done = Instant::now();
                    if let Some(t) = tracer {
                        t.record("service.call", None, i as u64, sent, done);
                    }
                    mine.push(Sample {
                        group: planned.group,
                        sent_s: (sent - start).as_secs_f64(),
                        ms: (done - sent).as_secs_f64() * 1e3,
                        late_ms: (sent - free).as_secs_f64() * 1e3,
                        check: planned.check,
                        answer,
                    });
                    free = done;
                }
                let mut last = last_done.lock().expect("no client panicked");
                *last = (*last).max(free);
                drop(last);
                samples.lock().expect("no client panicked").extend(mine);
            });
        }
    });
    let wall = (*last_done.lock().expect("clients joined") - start).as_secs_f64();
    (samples.into_inner().expect("clients joined"), wall)
}

/// How a workload generates its inputs.
struct Workload<'a> {
    /// The fixed grammars it sends, generated during set-up.
    sources: &'a dyn Fn() -> Vec<Source>,
    /// Warm-up texts of set-up `k`, never sent again.
    warmup: &'a dyn Fn(usize) -> Vec<String>,
    /// The `i`-th request of the run.
    plan: &'a (dyn Fn(&[Source], usize) -> Planned + Sync),
    /// Groups beyond one per fixed grammar.
    extra_groups: &'a [&'a str],
    clients: usize,
}

fn run(w: &Workload, seconds: f64, tracer: Option<&Tracer>) -> ColdRun {
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        let sources = (w.sources)();
        let service = setup(&(w.warmup)(k));
        kept = Some((sources, service));
        setups.push(start.elapsed().as_secs_f64());
    }
    let (sources, service) = kept.expect("at least one setup");
    let before = service.stats();
    let plan = |i: usize| (w.plan)(&sources, i);
    let (samples, wall_s) = closed_loop(&service, w.clients, seconds, &plan, tracer);
    let after = service.stats();
    drop(service);
    let mut names: Vec<String> = sources.iter().map(|s| s.name.clone()).collect();
    names.extend(w.extra_groups.iter().map(|s| s.to_string()));
    ColdRun {
        names,
        samples,
        window_s: seconds,
        wall_s,
        setup_s: stats::median(&mut setups),
        counters: Counters::of(&after).since(Counters::of(&before)),
    }
}

/// `cold_compile`: 2 clients, the realistic corpus renamed per request
/// interleaved with seeded random grammars of corpus size.
pub fn cold_compile(args: &Args, seconds: f64, tracer: Option<&Tracer>) -> ColdRun {
    let seed = args.seed;
    let warmup = |k: usize| -> Vec<String> {
        let mut texts: Vec<String> = inputs::realistic()
            .iter()
            .map(|s| s.renamed(&format!("w{k}")))
            .collect();
        // Random grammars from a seed space the run never uses.
        texts.extend((0..4).map(|i| inputs::random_text(!seed, (k * 4 + i) as u64)));
        texts
    };
    // Three realistic requests to one random one: the pooled p99 then
    // falls near the random grammars' p96, where their heavy tail is
    // dense enough for the estimate to repeat from seed to seed.
    let plan = |sources: &[Source], i: usize| -> Planned {
        if !i.is_multiple_of(RANDOM_EVERY) {
            let g = (i - i / RANDOM_EVERY - 1) % sources.len();
            Planned {
                group: g,
                text: sources[g].renamed(&format!("s{seed}r{i}")),
                check: Check::Fixed(g),
            }
        } else {
            Planned {
                group: sources.len(),
                text: inputs::random_text(seed, i as u64),
                check: Check::Random(i as u64),
            }
        }
    };
    let workload = Workload {
        sources: &inputs::realistic,
        warmup: &warmup,
        plan: &plan,
        extra_groups: &["random"],
        clients: 2,
    };
    run(&workload, seconds, tracer)
}

/// `cold_scaling`: 1 client compiling the large synthetic grammars in
/// passes, each pass under fresh names.
pub fn cold_scaling(args: &Args, seconds: f64, tracer: Option<&Tracer>) -> ColdRun {
    let seed = args.seed;
    // The same families at a quarter of the size.
    let warmup = |k: usize| -> Vec<String> {
        use lalr_corpus::synthetic::*;
        [
            Source::new("ladder", &expr_ladder(48)),
            Source::new("forest", &wide_forest(256)),
            Source::new("scc", &includes_scc(256)),
            Source::new("blocks", &nullable_blocks(256)),
        ]
        .iter()
        .map(|s| s.renamed(&format!("w{k}")))
        .collect()
    };
    let plan = |sources: &[Source], i: usize| -> Planned {
        let g = i % sources.len();
        Planned {
            group: g,
            text: sources[g].renamed(&format!("s{seed}p{i}")),
            check: Check::Fixed(g),
        }
    };
    let workload = Workload {
        sources: &inputs::scaling,
        warmup: &warmup,
        plan: &plan,
        extra_groups: &[],
        clients: 1,
    };
    run(&workload, seconds, tracer)
}

impl ColdRun {
    /// Checks every answer; returns the number of wrong or failed ones.
    pub fn verify(&self, args: &Args, out: &mut Outcome) -> u64 {
        let expected = inputs::expected();
        let fixed: Vec<Option<&Expected>> = self.names.iter().map(|n| expected.get(n)).collect();
        let failed = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        let first_error = Mutex::new(None::<String>);
        let fail = |msg: String| {
            failed.fetch_add(1, Ordering::Relaxed);
            first_error
                .lock()
                .expect("no checker panicked")
                .get_or_insert(msg);
        };
        // The oracle builds canonical LR(1) machines: split it over both CPUs.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(sample) = self.samples.get(i) else {
                        break;
                    };
                    let (states, conflicts, class, cached) = match &sample.answer {
                        Ok(a) => a,
                        Err(e) => {
                            fail(format!("request failed: {e}"));
                            continue;
                        }
                    };
                    if *cached {
                        fail(format!("{}: a cold compile was a cache hit", self.names[sample.group]));
                        continue;
                    }
                    match sample.check {
                        Check::Fixed(g) => {
                            let want = fixed[g].expect("expected.tsv covers every fixed grammar");
                            let got = Expected {
                                states: *states,
                                conflicts: *conflicts,
                                class: class.clone(),
                            };
                            if &got != want {
                                fail(format!("{}: got {got:?}, expected {want:?}", self.names[g]));
                            }
                        }
                        Check::Random(r) => {
                            let text = inputs::random_text(args.seed, r);
                            let grammar = lalr_grammar::parse_grammar(&text).expect("random grammar");
                            let want = phases::oracle_conflicts(&grammar);
                            if want != (*states, *conflicts) {
                                fail(format!(
                                    "random grammar {r}: (states, conflicts) = ({states}, {conflicts}), \
                                     LR(1)-merge oracle says {want:?}"
                                ));
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.into_inner().expect("checkers joined") {
            out.note(format!("first wrong answer: {e}"));
        }
        failed.into_inner() as u64
    }

    /// Per-grammar rows and the end-to-end metrics.
    pub fn report(&self, args: &Args, scaling: bool, out: &mut Outcome) -> Result<(), String> {
        let failed = self.verify(args, out);
        out.attempted = self.samples.len() as u64;
        out.failed = failed;
        let mut per_group: Vec<Vec<f64>> = vec![Vec::new(); self.names.len()];
        for s in &self.samples {
            per_group[s.group].push(s.ms);
        }
        let mut medians = Vec::new();
        out.note(format!("{:<22} {:>6} {:>12}", "grammar", "n", "median_ms"));
        for (name, times) in self.names.iter().zip(per_group.iter_mut()) {
            if times.is_empty() {
                return Err(format!("{name}: no compile completed in the window"));
            }
            let m = stats::median(times);
            out.note(format!("{name:<22} {:>6} {m:>12.4}", times.len()));
            medians.push(m);
        }
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        let (geomean, p50, tail, rate) = if scaling {
            // Six grammars compiled a few times each support no pooled
            // percentiles, and a pooled median would sit on the edge
            // between two grammars: the typical request is the geometric
            // mean of the per-grammar medians, the tail the slowest one,
            // and the rate that of a pass at the medians.
            let geomean = stats::geomean(&medians);
            let slowest = medians.iter().copied().fold(0.0, f64::max);
            let rate = 1e3 * medians.len() as f64 / medians.iter().sum::<f64>();
            out.note(format!(
                "slowest grammar's median {slowest:.4} ms; {:.4} compiles/s over the whole window",
                self.samples.len() as f64 / self.wall_s
            ));
            (geomean, geomean, slowest, rate)
        } else {
            // p99 needs 1,000 samples; a slow host may fall short, and then
            // the highest percentile the samples support is reported.
            let p = stats::percentile(&mut all, 99.0).or_else(|_| stats::tail(&mut all))?;
            let [mut g, mut m, mut r] = self.slices()?;
            out.note(format!(
                "compile latency {} pooled; per {:.1}-second slice: geomean {g:.4?}, \
                 p50 {m:.4?}, compiles/s {r:.2?}",
                p.label(),
                self.window_s / SLICES as f64,
            ));
            (
                stats::median(&mut g),
                stats::median(&mut m),
                p.value,
                stats::median(&mut r),
            )
        };
        out.metric("setup_s", self.setup_s, "s");
        out.metric("compile_geomean_ms", geomean, "ms");
        out.metric("compile_p99_ms", tail, "ms");
        out.metric("compiles_per_s", rate, "1/s");
        out.metric("request_p50_ms", p50, "ms");
        out.metric("request_p99_ms", tail, "ms");
        out.metric("max_rate_rps", rate, "req/s");
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
        out.note(format!(
            "failed_share = {} ({} of {})",
            report::share(failed, self.samples.len() as u64),
            failed,
            self.samples.len()
        ));
        out.note(self.counters.line());
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Per time slice of the window: the geometric mean of per-group
    /// medians, the median, and the rate of compiles sent. Their medians
    /// over slices are reported, so a burst of host noise in one slice
    /// does not move them.
    fn slices(&self) -> Result<[Vec<f64>; 3], String> {
        let width = self.window_s / SLICES as f64;
        let (mut geomeans, mut medians, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..SLICES {
            let inside: Vec<&Sample> = self
                .samples
                .iter()
                .filter(|s| ((s.sent_s / width) as usize).min(SLICES - 1) == k)
                .collect();
            let mut per_group = vec![Vec::new(); self.names.len()];
            for s in &inside {
                per_group[s.group].push(s.ms);
            }
            if per_group.iter().any(Vec::is_empty) {
                return Err(format!("a {width:.1}-second slice missed a grammar"));
            }
            let group_medians: Vec<f64> = per_group.iter_mut().map(|t| stats::median(t)).collect();
            geomeans.push(stats::geomean(&group_medians));
            medians.push(stats::median(
                &mut inside.iter().map(|s| s.ms).collect::<Vec<_>>(),
            ));
            rates.push(inside.len() as f64 / width);
        }
        Ok([geomeans, medians, rates])
    }

    /// The generator's own delay over `runs`: its highest supported
    /// percentile, or its maximum when there are too few samples.
    pub fn late_tail(runs: &[&ColdRun]) -> stats::Percentile {
        let mut late: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.samples.iter().map(|s| s.late_ms))
            .collect();
        stats::tail(&mut late).unwrap_or_else(|_| stats::Percentile {
            pct: 100.0,
            value: late.iter().copied().fold(0.0, f64::max),
            n: late.len(),
        })
    }

    /// Median compile time per group over `runs` (`None` for a group
    /// no run reached).
    pub fn group_medians(runs: &[&ColdRun]) -> Vec<Option<f64>> {
        let groups = runs.first().map_or(0, |r| r.names.len());
        let mut per = vec![Vec::new(); groups];
        for s in runs.iter().flat_map(|r| &r.samples) {
            per[s.group].push(s.ms);
        }
        per.iter_mut()
            .map(|t| (!t.is_empty()).then(|| stats::median(t)))
            .collect()
    }
}
