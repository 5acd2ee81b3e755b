//! Chaos soak: eight client threads drive a real TCP daemon through a
//! seeded fault schedule — injected read/write failures, partial
//! responses, compile panics, artificial latency, and cache-eviction
//! storms — with a retrying client. The assertions are the resilience
//! contract:
//!
//! * **No hangs, no lost responses**: every request eventually gets an
//!   `ok` reply (the harness's own completion is the no-hang proof).
//! * **Byte-identical artifacts**: each normalized response line equals
//!   the one a fault-free single-threaded reference produces.
//! * **Every fault accounted for**: per-rule `injected` equals the
//!   deterministic `expected` recompute, and the schedule really fired.
//!
//! The whole soak runs across three PRNG seeds; the stateless hit-hash
//! trigger design is what makes `injected == expected` hold regardless
//! of how the threads interleaved. The soak is skipped on platforms
//! without the epoll backend, where the daemon does not start.

use std::sync::Arc;
use std::time::Duration;

use lalr_core::Parallelism;
use lalr_service::protocol::response_to_line;
use lalr_service::{
    call_with_retry, DaemonConfig, EventDaemon, Fault, FaultInjector, FaultPlan, GrammarFormat,
    ParseTarget, Request, RetryPolicy, Service, ServiceConfig, Trigger,
};

/// One round of the mixed corpus workload: compile, classify and table
/// per grammar, then a **parse-heavy tail** — batched parse requests
/// carrying generated sentences plus their single-token mutants, so the
/// `service.parse` / `service.parse.doc` failpoints and the per-document
/// verdict encoding all sit on the differential path.
fn workload() -> Vec<Request> {
    let mut requests = Vec::new();
    for entry in lalr_corpus::all_entries() {
        let grammar = entry.source.to_string();
        requests.push(Request::Compile {
            grammar: grammar.clone(),
            format: GrammarFormat::Native,
        });
        requests.push(Request::Classify {
            grammar: grammar.clone(),
            format: GrammarFormat::Native,
        });
        requests.push(Request::Table {
            grammar: grammar.clone(),
            format: GrammarFormat::Native,
            compressed: true,
        });
        let parsed = entry.grammar();
        let to_doc = |s: &[lalr_grammar::Terminal]| {
            s.iter()
                .map(|&t| parsed.terminal_name(t))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let sentences = lalr_corpus::sentences::generate_many(&parsed, 0, 4, 20);
        if !sentences.is_empty() {
            let mut documents: Vec<String> = sentences.iter().map(|s| to_doc(s)).collect();
            for (_, mutant) in lalr_corpus::sentences::mutate_many(&parsed, &sentences, 7, 4) {
                documents.push(to_doc(&mutant));
            }
            requests.push(Request::Parse {
                target: ParseTarget::Text {
                    grammar: grammar.clone(),
                    format: GrammarFormat::Native,
                },
                documents,
                recover: false,
                sync: Vec::new(),
            });
        }
    }
    requests
}

/// Drops the scheduling-dependent `cached` flag: a retried request may
/// find its artifact cached by the aborted first attempt.
fn normalize(line: &str) -> String {
    line.replace("\"cached\":true", "\"cached\":false")
}

/// The soak's fault schedule. Every armed fault is *recoverable* from
/// the client's point of view: dropped/truncated/partial responses are
/// `closed` transport errors, injected compile panics are `panicked`
/// replies — all retryable. (Garbage injection, which surfaces as a
/// non-retryable `bad_request`, gets its own test in `event_hostile.rs`.)
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule("daemon.read", Fault::Error, Trigger::Rate(0.04))
        .rule("daemon.read", Fault::Truncate, Trigger::Rate(0.03))
        .rule("daemon.read", Fault::Delay(1), Trigger::Rate(0.05))
        .rule("daemon.write", Fault::Error, Trigger::Rate(0.03))
        .rule("daemon.write", Fault::PartialWrite, Trigger::Rate(0.04))
        .rule("service.compile", Fault::Panic, Trigger::Rate(0.10))
        .rule("service.compile", Fault::Delay(2), Trigger::Rate(0.15))
        .rule("service.parse", Fault::Panic, Trigger::Rate(0.05))
        .rule("service.parse", Fault::Delay(1), Trigger::Rate(0.08))
        .rule("service.parse.doc", Fault::Error, Trigger::Rate(0.01))
        .rule("cache.storm", Fault::EvictAll, Trigger::EveryNth(17))
        .rule("client.read", Fault::Error, Trigger::Rate(0.02))
        // Persistent-store faults at a combined 20% per failpoint: torn,
        // truncated, and garbage publishes, plus corrupted read-backs.
        // None of these may ever surface to a client — a failed publish
        // keeps the in-memory artifact, a corrupt load recompiles.
        .rule("store.write", Fault::Truncate, Trigger::Rate(0.08))
        .rule("store.write", Fault::Garbage, Trigger::Rate(0.06))
        .rule("store.write", Fault::PartialWrite, Trigger::Rate(0.06))
        .rule("store.read", Fault::Garbage, Trigger::Rate(0.20))
}

fn run_soak(seed: u64, shards: usize, expected_lines: &[String], requests: &Arc<Vec<Request>>) {
    const THREADS: usize = 8;
    let faults = plan(seed).build();
    let store_dir =
        std::env::temp_dir().join(format!("lalr-chaos-store-{seed:x}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_deadline: Duration::from_secs(2),
        faults: faults.clone(),
        service: ServiceConfig {
            workers: Parallelism::new(THREADS),
            faults: faults.clone(),
            store_dir: Some(store_dir.clone()),
            ..ServiceConfig::default()
        },
        ..DaemonConfig::default()
    };
    let daemon = EventDaemon::start(config, shards).expect("bind chaos daemon");
    let addr = daemon.addr().to_string();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            let requests = Arc::clone(requests);
            let faults = faults.clone();
            std::thread::spawn(move || {
                // Tight backoff keeps the soak fast; the generous retry
                // budget makes 40 consecutive injected failures (each
                // under ~25% likely) the only way to a spurious failure.
                let policy = RetryPolicy {
                    retries: 40,
                    backoff: Duration::from_millis(1),
                    cap: Duration::from_millis(16),
                    seed: seed ^ t as u64,
                };
                let mut got = Vec::new();
                for i in (t..requests.len()).step_by(THREADS) {
                    let reply = call_with_retry(
                        &addr,
                        &requests[i],
                        None,
                        Duration::from_secs(10),
                        &policy,
                        &faults,
                    )
                    .unwrap_or_else(|e| panic!("request {i} never succeeded: {e}"));
                    assert!(
                        reply.is_ok(),
                        "request {i} settled on an error reply: {}",
                        reply.raw
                    );
                    got.push((i, normalize(&reply.raw), reply.attempts));
                }
                got
            })
        })
        .collect();

    let mut attempts_total = 0u64;
    let mut actual = vec![String::new(); requests.len()];
    for h in handles {
        for (i, line, attempts) in h.join().expect("soak client panicked") {
            actual[i] = line;
            attempts_total += u64::from(attempts);
        }
    }

    // Byte-identical artifacts versus the fault-free reference.
    for (i, (want, got)) in expected_lines.iter().zip(&actual).enumerate() {
        assert_eq!(
            got,
            want,
            "seed {seed:#x}: request {i} ({:?}) diverged under chaos",
            requests[i].op()
        );
    }

    // Every injected fault is accounted for: the live counters agree
    // with the deterministic recompute of the schedule, per rule.
    let stats = faults.stats();
    for s in &stats {
        assert_eq!(
            s.injected, s.expected,
            "seed {seed:#x}: rule {s:?} lost count of its own schedule"
        );
    }
    let injected = faults.total_injected();
    assert!(
        injected > 0,
        "seed {seed:#x}: the schedule never fired — the soak tested nothing"
    );
    // Transport-level faults forced retries (compile panics can also be
    // absorbed by coalesced waiters, so compare against transport only).
    let transport: u64 = ["daemon.read", "daemon.write", "client.read"]
        .iter()
        .map(|p| faults.injected_at(p))
        .sum();
    assert!(
        attempts_total >= requests.len() as u64 + transport / 2,
        "seed {seed:#x}: {attempts_total} attempts for {} requests with \
         {transport} transport faults — retries unaccounted for",
        requests.len()
    );

    // The store path really was exercised under fault pressure (writes
    // attempted, read-backs attempted) — the byte-equality above is what
    // proves none of it leaked to a client.
    assert!(
        faults.injected_at("store.write") + faults.injected_at("store.read") > 0,
        "seed {seed:#x}: store failpoints never fired"
    );

    daemon.stop();
    let summary = daemon.join();
    assert_eq!(
        summary.aborted, 0,
        "seed {seed:#x}: drain aborted connections after clients finished"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn chaos_soak_eight_threads_three_seeds() {
    if !lalr_net::supported() {
        return;
    }
    let requests = Arc::new(workload());
    assert!(requests.len() >= 30, "workload is non-trivial");

    // Fault-free single-threaded reference, computed once.
    let reference = Service::new(ServiceConfig {
        workers: Parallelism::sequential(),
        ..ServiceConfig::default()
    });
    let expected: Vec<String> = requests
        .iter()
        .map(|r| normalize(&response_to_line(&reference.call(r.clone(), None))))
        .collect();
    drop(reference);

    // One shard for two seeds, two shards (cross-shard dealing and
    // completion routing) for the third.
    run_soak(0xA11CE, 1, &expected, &requests);
    run_soak(0xCAFE, 1, &expected, &requests);
    run_soak(0xB0B, 2, &expected, &requests);
}

/// The schedule is a pure function of the seed: two injectors built from
/// the same plan fire on exactly the same hit indices even though the
/// soak's thread interleavings differ run to run.
#[test]
fn chaos_schedule_replays_per_seed() {
    for seed in [1u64, 2, 3] {
        let a = plan(seed).build();
        let b = plan(seed).build();
        for point in [
            "daemon.read",
            "daemon.write",
            "service.compile",
            "service.parse",
            "service.parse.doc",
        ] {
            let fire_a: Vec<Option<Fault>> = (0..300).map(|_| a.at(point)).collect();
            let fire_b: Vec<Option<Fault>> = (0..300).map(|_| b.at(point)).collect();
            assert_eq!(fire_a, fire_b, "seed {seed}, point {point}");
        }
        assert_eq!(
            a.stats(),
            b.stats(),
            "identical drives must leave identical counters"
        );
    }
}

/// Injected compile panics must neither hang coalesced waiters nor
/// poison the cache: the panicked flight resolves with a `panicked`
/// error for everyone, and a retry recompiles successfully.
#[test]
fn injected_compile_panic_resolves_waiters_and_is_not_cached() {
    let faults = FaultPlan::new(9)
        .rule("service.compile", Fault::Panic, Trigger::OnHits(vec![1]))
        .build();
    let service = Arc::new(Service::new(ServiceConfig {
        workers: Parallelism::new(4),
        faults: faults.clone(),
        ..ServiceConfig::default()
    }));
    let req = || Request::Compile {
        grammar: "e : e \"+\" t | t ; t : \"x\" ;".to_string(),
        format: GrammarFormat::Native,
    };
    // Four concurrent requests for the same grammar: whoever leads hits
    // the injected panic on compile #1; every coalesced waiter must be
    // *released* with an error, not left on the condvar.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.call(req(), None))
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let panicked = responses
        .iter()
        .filter(|r| {
            matches!(r, lalr_service::Response::Error(lalr_service::ServiceError::Panicked(m))
                if m.contains("injected fault"))
        })
        .count();
    assert!(panicked >= 1, "{responses:?}");

    // Hit #1 consumed the panic; a fresh request now compiles cleanly —
    // the failed flight must not have been committed to the cache.
    match service.call(req(), None) {
        lalr_service::Response::Compile(c) => assert!(!c.cached || panicked < 4, "{c:?}"),
        other => panic!("retry after injected panic failed: {other:?}"),
    }
    assert_eq!(faults.injected_at("service.compile"), 1);
}

/// A fault at the batch boundary (`service.parse.doc`) aborts the whole
/// batch with one structured retryable error — never a half-filled
/// verdict list — and the retry parses every document.
#[test]
fn injected_batch_boundary_fault_aborts_cleanly_and_retry_succeeds() {
    let faults = FaultPlan::new(21)
        .rule("service.parse.doc", Fault::Error, Trigger::OnHits(vec![2]))
        .build();
    let service = Service::new(ServiceConfig {
        workers: Parallelism::sequential(),
        faults: faults.clone(),
        ..ServiceConfig::default()
    });
    let req = || Request::Parse {
        target: ParseTarget::Text {
            grammar: "e : e \"+\" t | t ; t : \"x\" ;".to_string(),
            format: GrammarFormat::Native,
        },
        documents: vec!["x".into(), "x + x".into(), "x +".into()],
        recover: false,
        sync: Vec::new(),
    };
    // Hit #2 is the boundary before document 2: the batch dies mid-way.
    match service.call(req(), None) {
        lalr_service::Response::Error(e) => {
            assert!(e.is_retryable(), "{e}");
            assert!(e.to_string().contains("service.parse.doc"), "{e}");
        }
        other => panic!("expected injected batch abort, got {other:?}"),
    }
    // The retry sees hits #3–#5 (unarmed) and parses all three documents.
    match service.call(req(), None) {
        lalr_service::Response::Parse(p) => {
            assert_eq!(p.docs.len(), 3);
            assert!(p.docs[0].accepted && p.docs[1].accepted);
            assert!(!p.docs[2].accepted);
        }
        other => panic!("retry after batch abort failed: {other:?}"),
    }
    assert_eq!(faults.injected_at("service.parse.doc"), 1);
    let stats = service.stats();
    // The aborted batch recorded no documents; only the retry counted.
    assert_eq!(stats.parse.documents, 3);
    assert_eq!(stats.parse.batches, 2, "both batches resolved an artifact");
}

/// A saturated service sheds with an explicit `overloaded` error instead
/// of queueing without bound, and the shed shows up in the stats.
#[test]
fn full_queue_sheds_with_explicit_overloaded_error() {
    let faults = FaultPlan::new(3)
        // Every compile sleeps, so one worker + one queue slot saturate.
        .rule("service.compile", Fault::Delay(60), Trigger::Rate(1.0))
        .build();
    let service = Arc::new(Service::new(ServiceConfig {
        workers: Parallelism::sequential(),
        max_pending: 1,
        cache: None,
        faults,
        ..ServiceConfig::default()
    }));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                service.call(
                    Request::Compile {
                        grammar: format!("s : \"x{t}\" ;"),
                        format: GrammarFormat::Native,
                    },
                    None,
                )
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shed = responses
        .iter()
        .filter(|r| {
            matches!(
                r,
                lalr_service::Response::Error(lalr_service::ServiceError::Overloaded { .. })
            )
        })
        .count();
    assert!(
        shed >= 1,
        "six slow requests against worker=1/queue=1 must shed: {responses:?}"
    );
    let stats = service.stats();
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(stats.queue_limit, 1);
    assert!(
        stats.faults.iter().any(|f| f.point == "service.compile"),
        "snapshot carries the armed schedule: {:?}",
        stats.faults
    );
    // Shed responses carry the `overloaded` wire kind end to end.
    let line = response_to_line(&lalr_service::Response::Error(
        lalr_service::ServiceError::Overloaded {
            pending: 1,
            limit: 1,
        },
    ));
    assert!(line.contains("\"kind\":\"overloaded\""), "{line}");
}

/// `FaultInjector::disabled()` really is inert end to end: a service
/// built with it answers the workload with zero injected faults and no
/// fault series in its stats.
#[test]
fn disabled_injector_changes_nothing() {
    let service = Service::new(ServiceConfig {
        workers: Parallelism::sequential(),
        faults: FaultInjector::disabled(),
        ..ServiceConfig::default()
    });
    for r in workload().into_iter().take(8) {
        assert!(service.call(r, None).is_ok());
    }
    let stats = service.stats();
    assert_eq!(stats.errors, 0);
    assert!(stats.faults.is_empty());
    assert_eq!(stats.shed, 0);
}
