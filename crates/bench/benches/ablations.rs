//! T7 — ablations of the design choices called out in DESIGN.md:
//!
//! - star unroll in `bRepair`: exact join vs pointed widening (Def. 7.11);
//! - disjunctive completion width (1 / 2 / 4 / 8) closure cost.

use air_bench::{int_domain, triangular_number, triangular_program, triangular_universe};
use air_core::{BackwardRepair, UnrollStrategy};
use air_domains::disjunctive::Disjunctive;
use air_domains::{Abstraction, IntervalEnv};
use air_lang::Universe;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_unroll_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_unroll");
    group.sample_size(10);
    let k = 6;
    let u = triangular_universe(k);
    let prog = triangular_program(k);
    let spec = u.filter(|s| s[1] <= triangular_number(k));
    let dom = int_domain(&u);
    for (label, strategy) in [
        ("join", UnrollStrategy::Join),
        ("pointed_widening", UnrollStrategy::PointedWidening),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = BackwardRepair::new(&u)
                    .unroll_strategy(strategy)
                    .repair(&dom, &u.full(), &prog, &spec)
                    .expect("repair succeeds");
                black_box(out.calls)
            })
        });
    }
    group.finish();
}

fn bench_disjunctive_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_disjunctive_width");
    let u = Universe::new(&[("x", -16, 16)]).unwrap();
    let probes: Vec<_> = (0..32u64)
        .map(|seed| air_bench::random_state_set(&u, seed))
        .collect();
    for width in [1usize, 2, 4, 8] {
        let dom = Disjunctive::new(IntervalEnv::new(&u), width);
        group.bench_with_input(BenchmarkId::new("width", width), &width, |b, _| {
            b.iter(|| {
                for p in &probes {
                    black_box(dom.closure_set(&u, p));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_unroll_strategy, bench_disjunctive_width);
criterion_main!(benches);
