//! Prometheus-style text exposition of a [`StatsSnapshot`].
//!
//! The format is the plain-text scrape format: `# HELP` / `# TYPE`
//! headers, then one `name{labels} value` sample per line. Histogram
//! buckets are cumulative (`le` is an upper bound including everything
//! below it) and end with `le="+Inf"`, followed by `_sum` and `_count`
//! samples, per the exposition convention. Everything is rendered from
//! one [`StatsSnapshot`], so a `metrics` response is internally
//! consistent: `lalr_requests_total` equals the sum over
//! `lalr_requests_by_op_total`, and each histogram's `+Inf` bucket
//! equals its `_count`.

use std::fmt::Write;

use crate::service::{StatsSnapshot, LATENCY_BOUNDS_US, OPS, PHASE_NAMES};

/// Renders the snapshot as Prometheus text exposition.
pub fn render(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    let w = &mut out;

    header(w, "lalr_requests_total", "counter", "Requests handled.");
    sample(w, "lalr_requests_total", "", s.requests);
    header(
        w,
        "lalr_errors_total",
        "counter",
        "Requests answered with an error response.",
    );
    sample(w, "lalr_errors_total", "", s.errors);
    header(
        w,
        "lalr_deadline_exceeded_total",
        "counter",
        "Requests that missed their deadline.",
    );
    sample(w, "lalr_deadline_exceeded_total", "", s.deadline_exceeded);

    header(
        w,
        "lalr_requests_by_op_total",
        "counter",
        "Requests handled, by protocol op.",
    );
    for (op, &n) in OPS.iter().zip(&s.by_op) {
        sample(w, "lalr_requests_by_op_total", &format!("op=\"{op}\""), n);
    }
    header(
        w,
        "lalr_errors_by_op_total",
        "counter",
        "Error responses, by protocol op.",
    );
    for (op, &n) in OPS.iter().zip(&s.errors_by_op) {
        sample(w, "lalr_errors_by_op_total", &format!("op=\"{op}\""), n);
    }

    header(
        w,
        "lalr_request_duration_us",
        "histogram",
        "Request latency in microseconds, by protocol op.",
    );
    for (i, op) in OPS.iter().enumerate() {
        let mut cumulative = 0u64;
        for (bucket, &n) in s.latency_by_op[i].iter().enumerate() {
            cumulative += n;
            let le = match LATENCY_BOUNDS_US.get(bucket) {
                Some(bound) => bound.to_string(),
                None => "+Inf".to_string(),
            };
            sample(
                w,
                "lalr_request_duration_us_bucket",
                &format!("le=\"{le}\",op=\"{op}\""),
                cumulative,
            );
        }
        sample(
            w,
            "lalr_request_duration_us_sum",
            &format!("op=\"{op}\""),
            s.latency_sum_us[i],
        );
        sample(
            w,
            "lalr_request_duration_us_count",
            &format!("op=\"{op}\""),
            cumulative,
        );
    }

    header(
        w,
        "lalr_phase_calls_total",
        "counter",
        "Compile-pipeline phase executions.",
    );
    for (phase, &n) in PHASE_NAMES.iter().zip(&s.phase_calls) {
        sample(
            w,
            "lalr_phase_calls_total",
            &format!("phase=\"{phase}\""),
            n,
        );
    }
    header(
        w,
        "lalr_phase_ns_total",
        "counter",
        "Compile-pipeline phase wall time in nanoseconds.",
    );
    for (phase, &n) in PHASE_NAMES.iter().zip(&s.phase_ns) {
        sample(w, "lalr_phase_ns_total", &format!("phase=\"{phase}\""), n);
    }

    header(
        w,
        "lalr_parse_batches_total",
        "counter",
        "Parse batches that resolved an artifact.",
    );
    sample(w, "lalr_parse_batches_total", "", s.parse.batches);
    header(
        w,
        "lalr_parse_documents_total",
        "counter",
        "Documents parsed by the parse op, by verdict.",
    );
    for (verdict, n) in [
        ("accepted", s.parse.accepted),
        ("rejected", s.parse.rejected),
    ] {
        sample(
            w,
            "lalr_parse_documents_total",
            &format!("verdict=\"{verdict}\""),
            n,
        );
    }
    header(
        w,
        "lalr_parse_artifact_resolutions_total",
        "counter",
        "Artifact resolutions performed for parse batches (documents \
         divided by resolutions is the cache-amortization ratio).",
    );
    sample(
        w,
        "lalr_parse_artifact_resolutions_total",
        "",
        s.parse.resolutions,
    );

    if let Some(c) = &s.cache {
        header(
            w,
            "lalr_cache_events_total",
            "counter",
            "Artifact cache events, by kind.",
        );
        for (kind, n) in [
            ("hits", c.hits),
            ("misses", c.misses),
            ("coalesced", c.coalesced),
            ("evictions", c.evictions),
            ("compiles", c.compiles),
        ] {
            sample(w, "lalr_cache_events_total", &format!("kind=\"{kind}\""), n);
        }
        header(
            w,
            "lalr_store_events_total",
            "counter",
            "Persistent store-tier events, by kind (all zero unless a \
             store directory is configured).",
        );
        for (kind, n) in [
            ("hits", c.store_hits),
            ("misses", c.store_misses),
            ("writes", c.store_writes),
            ("corrupt", c.store_corrupt),
        ] {
            sample(w, "lalr_store_events_total", &format!("kind=\"{kind}\""), n);
        }
        header(
            w,
            "lalr_cache_entries",
            "gauge",
            "Committed cache entries right now.",
        );
        sample(w, "lalr_cache_entries", "", c.entries as u64);
        header(
            w,
            "lalr_cache_bytes",
            "gauge",
            "Resident accounted cache bytes right now.",
        );
        sample(w, "lalr_cache_bytes", "", c.bytes as u64);
    }

    header(
        w,
        "lalr_shed_total",
        "counter",
        "Requests shed because the pending queue was full.",
    );
    sample(w, "lalr_shed_total", "", s.shed);
    header(
        w,
        "lalr_queue_depth",
        "gauge",
        "Requests waiting in the pending queue right now.",
    );
    sample(w, "lalr_queue_depth", "", s.queue_depth as u64);
    header(
        w,
        "lalr_queue_limit",
        "gauge",
        "Configured pending-queue bound.",
    );
    sample(w, "lalr_queue_limit", "", s.queue_limit as u64);

    header(
        w,
        "lalr_health_state",
        "gauge",
        "Daemon health state (0 ok, 1 degraded, 2 draining).",
    );
    sample(w, "lalr_health_state", "", u64::from(s.health.state.code()));
    header(
        w,
        "lalr_degraded_transitions_total",
        "counter",
        "Health state transitions from ok to degraded.",
    );
    sample(
        w,
        "lalr_degraded_transitions_total",
        "",
        s.health.degraded_transitions,
    );
    header(
        w,
        "lalr_shard_restarts_total",
        "counter",
        "Event-loop shards respawned by the supervisor after a panic.",
    );
    sample(w, "lalr_shard_restarts_total", "", s.health.shard_restarts);
    header(
        w,
        "lalr_admission_rejects_total",
        "counter",
        "Connections and request lines rejected by admission control, \
         by reason.",
    );
    for (reason, n) in [
        ("conn_cap", s.health.admission.conn_cap),
        ("failpoint", s.health.admission.failpoint),
        ("peer_quota", s.health.admission.peer_quota),
        ("rate_limit", s.health.admission.rate_limit),
        ("slow_client", s.health.admission.slow_client),
    ] {
        sample(
            w,
            "lalr_admission_rejects_total",
            &format!("reason=\"{reason}\""),
            n,
        );
    }

    if !s.faults.is_empty() {
        header(
            w,
            "lalr_fault_hits_total",
            "counter",
            "Failpoint evaluations, by armed rule.",
        );
        for f in &s.faults {
            sample(
                w,
                "lalr_fault_hits_total",
                &format!("fault=\"{}\",point=\"{}\"", f.fault, f.point),
                f.hits,
            );
        }
        header(
            w,
            "lalr_fault_injected_total",
            "counter",
            "Faults actually injected, by armed rule.",
        );
        for f in &s.faults {
            sample(
                w,
                "lalr_fault_injected_total",
                &format!("fault=\"{}\",point=\"{}\"", f.fault, f.point),
                f.injected,
            );
        }
    }

    /// One shard family: name, help text, field accessor.
    type ShardFamily = (
        &'static str,
        &'static str,
        fn(&crate::ShardStatsSnapshot) -> u64,
    );
    if !s.shards.is_empty() {
        let shard_families: [ShardFamily; 6] = [
            (
                "lalr_shard_epoll_waits_total",
                "epoll_wait calls made by the shard event loop.",
                |sh| sh.epoll_waits,
            ),
            (
                "lalr_shard_events_total",
                "Readiness events dispatched by the shard event loop.",
                |sh| sh.events,
            ),
            (
                "lalr_shard_accepts_total",
                "Connections accepted or dealt to the shard.",
                |sh| sh.accepts,
            ),
            (
                "lalr_shard_inbox_items_total",
                "Completions and dealt connections drained from the shard inbox.",
                |sh| sh.inbox_items,
            ),
            (
                "lalr_shard_timer_fires_total",
                "Timer-wheel expirations handled by the shard.",
                |sh| sh.timer_fires,
            ),
            (
                "lalr_shard_connections",
                "Connections open on the shard right now.",
                |sh| sh.connections,
            ),
        ];
        for (name, help, get) in shard_families {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            header(w, name, kind, help);
            for sh in &s.shards {
                sample(w, name, &format!("shard=\"{}\"", sh.shard), get(sh));
            }
        }
        header(
            w,
            "lalr_shard_epoll_wait_seconds_total",
            "counter",
            "Seconds the shard event loop spent blocked in epoll_wait.",
        );
        for sh in &s.shards {
            sample_f64(
                w,
                "lalr_shard_epoll_wait_seconds_total",
                &format!("shard=\"{}\"", sh.shard),
                sh.epoll_wait_us as f64 / 1e6,
            );
        }
    }

    if s.tracing.enabled {
        header(
            w,
            "lalr_stage_seconds_total",
            "counter",
            "Seconds spent per request stage across sampled requests \
             (flight-recorder attribution, scaled by the sampling period).",
        );
        for (stage, &ns) in lalr_obs::STAGE_NAMES.iter().zip(&s.tracing.stage_ns) {
            sample_f64(
                w,
                "lalr_stage_seconds_total",
                &format!("stage=\"{stage}\""),
                ns as f64 / 1e9,
            );
        }
        header(
            w,
            "lalr_traces_sampled_total",
            "counter",
            "Requests sampled into the flight recorder.",
        );
        sample(w, "lalr_traces_sampled_total", "", s.tracing.sampled);
    }

    header(w, "lalr_workers", "gauge", "Worker pool size.");
    sample(w, "lalr_workers", "", s.workers as u64);
    header(
        w,
        "lalr_build_info",
        "gauge",
        "Build and runtime configuration (always 1; the labels carry \
         the information).",
    );
    sample(
        w,
        "lalr_build_info",
        &format!(
            "shards=\"{}\",version=\"{}\"",
            s.shards.len(),
            env!("CARGO_PKG_VERSION"),
        ),
        1,
    );
    header(
        w,
        "lalr_uptime_ms",
        "gauge",
        "Milliseconds since the service started.",
    );
    sample(w, "lalr_uptime_ms", "", s.uptime_ms);
    header(
        w,
        "lalr_uptime_seconds",
        "gauge",
        "Seconds since the service started.",
    );
    sample_f64(w, "lalr_uptime_seconds", "", s.uptime_ms as f64 / 1e3);
    out
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// A sample with a fractional value (seconds-valued families). Renders
/// with six decimal places — microsecond resolution, deterministic
/// width.
fn sample_f64(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value:.6}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value:.6}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> StatsSnapshot {
        StatsSnapshot {
            requests: 10,
            errors: 2,
            deadline_exceeded: 1,
            by_op: [4, 2, 1, 1, 1, 1, 0, 0, 0],
            errors_by_op: [1, 0, 0, 1, 0, 0, 0, 0, 0],
            latency_buckets: [3, 4, 2, 1, 0, 0],
            latency_by_op: [
                [1, 2, 1, 0, 0, 0],
                [0, 1, 1, 0, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0],
            ],
            latency_sum_us: [900, 700, 50, 300, 20, 15_000, 0, 0, 0],
            phase_calls: [4, 4, 4, 4, 4, 4, 4, 4],
            phase_ns: [100, 2_000, 300, 400, 500, 600, 7_000, 800],
            parse: crate::service::ParseLaneStats {
                batches: 2,
                documents: 9,
                accepted: 7,
                rejected: 2,
                resolutions: 2,
            },
            cache: None,
            workers: 2,
            uptime_ms: 1234,
            shed: 3,
            queue_depth: 1,
            queue_limit: 64,
            faults: Vec::new(),
            shards: Vec::new(),
            health: crate::service::HealthStats::default(),
            tracing: crate::service::TracingStats::default(),
        }
    }

    #[test]
    fn every_sample_line_is_well_formed_and_typed() {
        let mut s = snapshot();
        s.shards = vec![crate::ShardStatsSnapshot {
            shard: 0,
            epoll_waits: 12,
            epoll_wait_us: 3_400,
            events: 30,
            accepts: 2,
            inbox_items: 5,
            timer_fires: 1,
            connections: 2,
        }];
        s.tracing = crate::service::TracingStats {
            enabled: true,
            capacity: 256,
            sample_every: 1,
            sampled: 9,
            stage_ns: [1_000, 2_000, 3_000, 0, 500],
        };
        let text = render(&s);
        let mut typed = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
            // Counters are integers; seconds-valued families are floats.
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            let name = name_labels.split('{').next().unwrap();
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                typed.contains(base) || typed.contains(name),
                "sample {name} has no TYPE header"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = render(&snapshot());
        let compile: Vec<u64> = text
            .lines()
            .filter(|l| {
                l.starts_with("lalr_request_duration_us_bucket") && l.contains("op=\"compile\"")
            })
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(compile.len(), LATENCY_BOUNDS_US.len() + 1);
        assert!(compile.windows(2).all(|w| w[0] <= w[1]), "{compile:?}");
        assert_eq!(*compile.last().unwrap(), 4, "+Inf bucket counts all");
        let count_line = text
            .lines()
            .find(|l| l.starts_with("lalr_request_duration_us_count") && l.contains("compile"))
            .unwrap();
        assert_eq!(count_line.rsplit_once(' ').unwrap().1, "4");
    }

    #[test]
    fn shed_queue_and_fault_series_render() {
        let mut s = snapshot();
        let text = render(&s);
        assert!(text.contains("lalr_shed_total 3"), "{text}");
        assert!(text.contains("lalr_queue_depth 1"), "{text}");
        assert!(text.contains("lalr_queue_limit 64"), "{text}");
        // No chaos plan → no fault series at all.
        assert!(!text.contains("lalr_fault_"), "{text}");

        s.faults = vec![lalr_chaos::FaultPointStats {
            point: "daemon.read".to_string(),
            fault: "delay-2".to_string(),
            hits: 40,
            injected: 13,
            expected: 13,
        }];
        let text = render(&s);
        assert!(
            text.contains("lalr_fault_hits_total{fault=\"delay-2\",point=\"daemon.read\"} 40"),
            "{text}"
        );
        assert!(
            text.contains("lalr_fault_injected_total{fault=\"delay-2\",point=\"daemon.read\"} 13"),
            "{text}"
        );
    }

    #[test]
    fn parse_lane_series_render_and_agree() {
        let s = snapshot();
        let text = render(&s);
        assert!(text.contains("lalr_parse_batches_total 2"), "{text}");
        assert!(
            text.contains("lalr_parse_documents_total{verdict=\"accepted\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("lalr_parse_documents_total{verdict=\"rejected\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lalr_parse_artifact_resolutions_total 2"),
            "{text}"
        );
        // Accepted + rejected covers every document.
        assert_eq!(s.parse.accepted + s.parse.rejected, s.parse.documents);
    }

    #[test]
    fn health_and_admission_families_always_render() {
        let mut s = snapshot();
        let text = render(&s);
        assert!(text.contains("lalr_health_state 0"), "{text}");
        assert!(text.contains("lalr_degraded_transitions_total 0"), "{text}");
        assert!(text.contains("lalr_shard_restarts_total 0"), "{text}");
        assert!(
            text.contains("lalr_admission_rejects_total{reason=\"peer_quota\"} 0"),
            "{text}"
        );

        s.health = crate::service::HealthStats {
            state: crate::service::HealthState::Degraded,
            degraded_transitions: 2,
            shard_restarts: 1,
            admission: crate::service::AdmissionRejects {
                conn_cap: 4,
                peer_quota: 3,
                rate_limit: 7,
                slow_client: 1,
                failpoint: 2,
            },
            max_connections_per_peer: 8,
            rate_limit_per_sec: 100,
        };
        let text = render(&s);
        assert!(text.contains("lalr_health_state 1"), "{text}");
        assert!(text.contains("lalr_degraded_transitions_total 2"), "{text}");
        assert!(text.contains("lalr_shard_restarts_total 1"), "{text}");
        assert!(
            text.contains("lalr_admission_rejects_total{reason=\"rate_limit\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("lalr_admission_rejects_total{reason=\"slow_client\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn totals_agree_with_per_op_breakdowns() {
        let s = snapshot();
        let text = render(&s);
        let sum: u64 = text
            .lines()
            .filter(|l| l.starts_with("lalr_requests_by_op_total{"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, s.requests);
    }

    #[test]
    fn build_info_and_uptime_seconds_always_render() {
        let text = render(&snapshot());
        let info = text
            .lines()
            .find(|l| l.starts_with("lalr_build_info{"))
            .expect("build info sample");
        assert!(info.contains("version=\""), "{info}");
        assert!(info.contains("shards=\"0\""), "{info}");
        assert!(info.ends_with("} 1"), "{info}");
        assert!(text.contains("lalr_uptime_ms 1234"), "{text}");
        assert!(text.contains("lalr_uptime_seconds 1.234000"), "{text}");
    }

    #[test]
    fn shard_and_stage_families_render_only_when_present() {
        let mut s = snapshot();
        let text = render(&s);
        // Per-shard families need shards; `lalr_shard_restarts_total` is
        // daemon-wide and always renders.
        assert!(!text.contains("lalr_shard_epoll"), "{text}");
        assert!(!text.contains("lalr_shard_connections"), "{text}");
        assert!(!text.contains("lalr_shard_accepts_total"), "{text}");
        assert!(!text.contains("lalr_stage_seconds_total"), "{text}");

        s.shards = vec![
            crate::ShardStatsSnapshot {
                shard: 0,
                epoll_waits: 12,
                epoll_wait_us: 3_400,
                events: 30,
                accepts: 2,
                inbox_items: 5,
                timer_fires: 1,
                connections: 2,
            },
            crate::ShardStatsSnapshot {
                shard: 1,
                epoll_waits: 8,
                epoll_wait_us: 1_000,
                events: 10,
                accepts: 1,
                inbox_items: 3,
                timer_fires: 0,
                connections: 1,
            },
        ];
        s.tracing = crate::service::TracingStats {
            enabled: true,
            capacity: 256,
            sample_every: 4,
            sampled: 9,
            stage_ns: [1_000_000, 0, 2_500_000_000, 0, 0],
        };
        let text = render(&s);
        assert!(
            text.contains("lalr_shard_epoll_waits_total{shard=\"0\"} 12"),
            "{text}"
        );
        assert!(
            text.contains("lalr_shard_accepts_total{shard=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lalr_shard_connections{shard=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lalr_shard_epoll_wait_seconds_total{shard=\"0\"} 0.003400"),
            "{text}"
        );
        assert!(
            text.contains("lalr_stage_seconds_total{stage=\"queue\"} 0.001000"),
            "{text}"
        );
        assert!(
            text.contains("lalr_stage_seconds_total{stage=\"compile\"} 2.500000"),
            "{text}"
        );
        assert!(text.contains("lalr_traces_sampled_total 9"), "{text}");
        assert!(text.contains("shards=\"2\""), "{text}");
    }
}
