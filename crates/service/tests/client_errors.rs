//! The client's transport-error taxonomy: a connection that is refused,
//! one that goes silent, one that closes before replying, and one that
//! closes mid-line are four *different* failures, and each maps to its
//! own [`ServiceError`] variant so retry policy can tell them apart.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use lalr_service::client::{call_with_retry, RetryPolicy};
use lalr_service::{
    client, DaemonConfig, EventDaemon, Fault, FaultInjector, FaultPlan, GrammarFormat, Request,
    ServiceError, Trigger,
};

const GRAMMAR: &str = "e : e \"+\" t | t ; t : \"x\" ;";

fn compile_request() -> Request {
    Request::Compile {
        grammar: GRAMMAR.to_string(),
        format: GrammarFormat::Native,
    }
}

/// A one-shard daemon on a loopback port, or `None` where the epoll
/// backend is unavailable.
fn start_daemon() -> Option<EventDaemon> {
    lalr_net::supported().then(|| {
        EventDaemon::start(
            DaemonConfig {
                addr: "127.0.0.1:0".to_string(),
                ..DaemonConfig::default()
            },
            1,
        )
        .expect("bind loopback")
    })
}

/// A one-shot fake server: accepts a single connection and hands it to
/// `serve` on a background thread, returning the address to dial.
fn fake_server<F>(serve: F) -> (String, std::thread::JoinHandle<()>)
where
    F: FnOnce(TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            serve(stream);
        }
    });
    (addr, handle)
}

#[test]
fn a_dead_port_is_reported_as_refused() {
    // Bind and immediately drop to obtain a port with no listener.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let err = client::call(&addr, &compile_request(), None, Duration::from_secs(5)).unwrap_err();
    assert!(matches!(err, ServiceError::Refused(_)), "{err:?}");
    assert!(err.is_retryable());
}

#[test]
fn a_silent_server_is_reported_as_timeout() {
    let (addr, handle) = fake_server(|stream| {
        // Accept, read nothing, say nothing, hold the socket open past
        // the client's timeout.
        std::thread::sleep(Duration::from_millis(500));
        drop(stream);
    });
    let err =
        client::call(&addr, &compile_request(), None, Duration::from_millis(100)).unwrap_err();
    assert!(matches!(err, ServiceError::Timeout(_)), "{err:?}");
    assert!(err.is_retryable());
    handle.join().unwrap();
}

/// Consumes one request line so that closing afterwards sends a clean
/// FIN instead of an RST (unread bytes at close reset the connection).
fn swallow_request(stream: &TcpStream) {
    let mut line = String::new();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
}

#[test]
fn a_connection_dropped_before_any_reply_is_closed_not_timeout() {
    let (addr, handle) = fake_server(|stream| {
        swallow_request(&stream);
        drop(stream);
    });
    let err = client::call(&addr, &compile_request(), None, Duration::from_secs(5)).unwrap_err();
    match &err {
        ServiceError::Closed(msg) => {
            assert!(msg.contains("before a response"), "{msg}")
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    assert!(err.is_retryable());
    handle.join().unwrap();
}

#[test]
fn a_reply_cut_mid_line_is_closed_with_the_byte_count() {
    let (addr, handle) = fake_server(|mut stream| {
        // Half a response and no newline, then hang up — exactly what
        // the daemon.write PartialWrite failpoint produces server-side.
        swallow_request(&stream);
        stream.write_all(b"{\"ok\":true,\"op\":\"comp").unwrap();
        stream.flush().unwrap();
    });
    let err = client::call(&addr, &compile_request(), None, Duration::from_secs(5)).unwrap_err();
    match &err {
        ServiceError::Closed(msg) => {
            assert!(msg.contains("mid-response"), "{msg}");
            assert!(msg.contains("21 bytes"), "{msg}");
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    assert!(err.is_retryable());
    handle.join().unwrap();
}

#[test]
fn client_side_failpoints_surface_as_their_transport_errors() {
    // No server needed: client.connect fires before any dial.
    let faults = FaultPlan::new(3)
        .rule("client.connect", Fault::Error, Trigger::OnHits(vec![1]))
        .build();
    let err = call_with_retry(
        "127.0.0.1:1",
        &compile_request(),
        None,
        Duration::from_secs(1),
        &RetryPolicy::none(),
        &faults,
    )
    .unwrap_err();
    assert!(matches!(err, ServiceError::Refused(_)), "{err:?}");
    assert_eq!(faults.injected_at("client.connect"), 1);

    // client.write and client.read inject against a live daemon.
    let Some(daemon) = start_daemon() else {
        return;
    };
    for point in ["client.write", "client.read"] {
        let faults = FaultPlan::new(3)
            .rule(point, Fault::Error, Trigger::OnHits(vec![1]))
            .build();
        let err = call_with_retry(
            &daemon.addr().to_string(),
            &compile_request(),
            None,
            Duration::from_secs(5),
            &RetryPolicy::none(),
            &faults,
        )
        .unwrap_err();
        assert!(matches!(err, ServiceError::Io(_)), "{point}: {err:?}");
        assert_eq!(faults.injected_at(point), 1, "{point}");
    }
    daemon.stop();
    daemon.join();
}

#[test]
fn retry_recovers_from_two_injected_connect_failures() {
    let Some(daemon) = start_daemon() else {
        return;
    };
    // First two dials are shot down; the third goes through, so the
    // reply must arrive stamped `attempts == 3`.
    let faults = FaultPlan::new(9)
        .rule("client.connect", Fault::Error, Trigger::OnHits(vec![1, 2]))
        .build();
    let policy = RetryPolicy {
        retries: 4,
        backoff: Duration::from_millis(1),
        cap: Duration::from_millis(8),
        seed: 0xD1A1,
    };
    let reply = call_with_retry(
        &daemon.addr().to_string(),
        &compile_request(),
        None,
        Duration::from_secs(5),
        &policy,
        &faults,
    )
    .unwrap();
    assert!(reply.is_ok(), "{}", reply.raw);
    assert_eq!(reply.attempts, 3, "{}", reply.raw);
    assert_eq!(faults.injected_at("client.connect"), 2);

    // With retries exhausted before the schedule runs out, the last
    // transport error is what the caller sees.
    let faults = FaultPlan::new(9)
        .rule("client.connect", Fault::Error, Trigger::Rate(1.0))
        .build();
    let policy = RetryPolicy {
        retries: 2,
        backoff: Duration::from_millis(1),
        cap: Duration::from_millis(4),
        seed: 0xD1A2,
    };
    let err = call_with_retry(
        &daemon.addr().to_string(),
        &compile_request(),
        None,
        Duration::from_secs(5),
        &policy,
        &faults,
    )
    .unwrap_err();
    assert!(matches!(err, ServiceError::Refused(_)), "{err:?}");
    assert_eq!(faults.injected_at("client.connect"), 3);

    // A plain disabled injector plus zero retries is the legacy path.
    let reply = call_with_retry(
        &daemon.addr().to_string(),
        &compile_request(),
        None,
        Duration::from_secs(5),
        &RetryPolicy::none(),
        &FaultInjector::disabled(),
    )
    .unwrap();
    assert!(reply.is_ok(), "{}", reply.raw);
    assert_eq!(reply.attempts, 1);
    daemon.stop();
    daemon.join();
}
