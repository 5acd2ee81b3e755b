//! The observability no-overhead contract: driving the recorded pipeline
//! entry points with [`lalr_obs::NULL`] must execute *exactly* the plain
//! pipeline — same allocation count, byte for byte. Every counter in the
//! instrumentation is gated on `Recorder::is_enabled`, so the NULL path
//! compiles down to the pre-instrumentation code; if someone adds an
//! ungated `format!`, `Vec` tally, or clone on the hot path, this test
//! catches it as an allocation delta before any benchmark notices.
//!
//! This file is its own test binary (one test, no concurrency), so the
//! process-global allocation counters see only the measured pipeline.

use lalr_automata::Lr0Automaton;
use lalr_bench::alloc_counter::measure;
use lalr_core::LalrAnalysis;

fn cold_allocations(recorded: bool) -> usize {
    let entry = lalr_corpus::by_name("c_subset").expect("corpus entry exists");
    let ((), stats) = measure(|| {
        let grammar = entry.grammar();
        let (lr0, analysis) = if recorded {
            let lr0 = Lr0Automaton::build_recorded(&grammar, &lalr_obs::NULL);
            let a = LalrAnalysis::compute_recorded(&grammar, &lr0, &lalr_obs::NULL);
            (lr0, a)
        } else {
            let lr0 = Lr0Automaton::build(&grammar);
            let a = LalrAnalysis::compute(&grammar, &lr0);
            (lr0, a)
        };
        std::hint::black_box((lr0.state_count(), analysis.lookaheads().reduction_count()));
    });
    stats.allocations
}

#[test]
fn null_recorder_adds_zero_allocations_to_the_cold_pipeline() {
    // One warm-up round each, so lazily initialized state (thread-local
    // buffers, allocator metadata) is attributed to neither arm.
    let _ = cold_allocations(false);
    let _ = cold_allocations(true);

    let plain = cold_allocations(false);
    let nulled = cold_allocations(true);
    assert_eq!(
        nulled, plain,
        "the NULL-recorder pipeline allocated {nulled} times vs {plain} plain — \
         an instrumentation tally is not gated on Recorder::is_enabled"
    );
}
