//! E7 — set-representation ablation: the paper's word-parallel bit vectors
//! vs a hash-set store for the same Digraph traversal.

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lalr_automata::Lr0Automaton;
use lalr_core::Relations;
use lalr_digraph::{digraph, digraph_from_on, UnionSets};

/// Hash-set-per-node store implementing the same interface.
struct HashStore {
    sets: Vec<HashSet<usize>>,
}

impl UnionSets for HashStore {
    fn union(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let (a, b) = if dst < src {
            let (lo, hi) = self.sets.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.sets.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        };
        a.extend(b.iter().copied());
    }

    fn assign(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let copied = self.sets[src].clone();
        self.sets[dst] = copied;
    }
}

fn bench_set_repr(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_repr_follow");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["pascal", "c_subset"] {
        let grammar = lalr_corpus::by_name(name).expect("exists").grammar();
        let lr0 = Lr0Automaton::build(&grammar);
        let rel = Relations::build(&grammar, &lr0);
        let mut read = rel.dr().clone();
        digraph(rel.reads(), &mut read);

        group.bench_with_input(
            BenchmarkId::new("bitset", name),
            &(&rel, &read),
            |b, (rel, read)| {
                b.iter(|| {
                    let mut sets = (*read).clone();
                    digraph(rel.includes(), &mut sets);
                    sets
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hashset", name),
            &(&rel, &read),
            |b, (rel, read)| {
                b.iter(|| {
                    let mut store = HashStore {
                        sets: (0..read.rows())
                            .map(|r| read.iter_row(r).collect())
                            .collect(),
                    };
                    digraph_from_on(rel.includes(), &mut store, 0..rel.includes().node_count());
                    store.sets.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_set_repr);
criterion_main!(benches);
