//! T5 — abstract-domain micro-benchmarks: the `α`/`γ` costs of the
//! from-scratch domains (interval env, octagon DBM closure, predicate
//! evaluation) that every enumerated closure pays.

use air_domains::{Abstraction, IntervalEnv, OctagonDomain, PredicateDomain};
use air_lang::{parse_bexp, Universe};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_domain_ops(c: &mut Criterion) {
    let u = Universe::new(&[("x", -20, 20), ("y", -20, 20), ("z", -20, 20)]).unwrap();
    let region = u.filter(|s| s[0] + s[1] <= 10 && s[1] - s[2] < 4 && s[0] >= 0);

    let mut group = c.benchmark_group("domain_ops");

    let env = IntervalEnv::new(&u);
    group.bench_function("interval_env_alpha", |b| {
        b.iter(|| black_box(env.alpha_set(&u, &region)))
    });

    let oct = OctagonDomain::new(&u);
    let oct_top = oct.alpha_set(&u, &u.full());
    let refined = oct.alpha_set(&u, &region);
    group.bench_function("octagon_alpha_and_close", |b| {
        b.iter(|| black_box(oct.alpha_set(&u, &region)))
    });
    group.bench_function("octagon_join", |b| {
        b.iter(|| black_box(oct.join(&refined, &oct_top)))
    });

    let preds = PredicateDomain::new(
        &u,
        vec![
            ("p", parse_bexp("x = y").unwrap()),
            ("q", parse_bexp("z >= 0").unwrap()),
        ],
    );
    group.bench_function("predicate_alpha_store", |b| {
        b.iter(|| black_box(preds.alpha_store(&[3, 3, -1])))
    });

    // γ enumeration over the universe: the enumerative engine's core cost.
    let small = Universe::new(&[("x", -10, 10), ("y", -10, 10)]).unwrap();
    let small_env = IntervalEnv::new(&small);
    let elem = small_env.alpha_set(&small, &small.filter(|s| s[0] + s[1] <= 3));
    group.bench_function("gamma_enumeration_441_states", |b| {
        b.iter(|| black_box(small_env.gamma_set(&small, &elem)))
    });

    group.finish();
}

criterion_group!(benches, bench_domain_ops);
criterion_main!(benches);
