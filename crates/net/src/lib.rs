//! Dependency-free readiness-driven I/O primitives.
//!
//! The workspace's external dependencies are vendored shims; this crate
//! extends the same discipline to the operating system: instead of
//! `libc`/`mio`/`memmap2` it issues the handful of Linux syscalls the
//! daemon and the artifact store need directly (see [`sys`]), and wraps
//! them in safe types:
//!
//! * [`Poller`] / [`Waker`] — an edge-triggered epoll event loop with
//!   cross-thread wake-up (eventfd);
//! * [`TimerWheel`] — hashed-wheel connection timeouts with O(1)
//!   re-arm and cancellation, holding only live timers;
//! * [`TokenBucket`] — a caller-clocked token bucket for request
//!   admission (pure state machine, deterministic under test);
//! * [`LineReader`] / [`WriteBuf`] — per-connection buffers for
//!   newline framing and line-length caps under nonblocking reads and
//!   partial writes;
//! * [`Mmap`] — read-only file mappings for zero-copy artifact loads,
//!   with a `read` fallback so callers have one code path.
//!
//! All `unsafe` in the workspace's service stack lives behind this
//! crate's [`sys`] module; everything above it (including the epoll
//! front end in `lalr-service`) stays `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

pub mod bucket;
pub mod buf;
pub mod mmap;
pub mod poll;
pub mod sys;
pub mod timer;

pub use bucket::TokenBucket;
pub use buf::{LineEvent, LineReader, WriteBuf};
pub use mmap::Mmap;
pub use poll::{Event, Interest, PollStats, Poller, Waker};
pub use timer::{Expired, TimerWheel};

/// `true` when the raw epoll/eventfd/mmap backend is available on this
/// target (x86-64 Linux).
pub fn supported() -> bool {
    sys::supported()
}
