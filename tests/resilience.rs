//! Fault-injection regressions at the seams the chaos sweep exercises:
//! a supervised worker panic racing a governor cancellation inside
//! `par_map_governed`, and the memo-cache error path (shard poisoning →
//! quarantine → uncached fallback) driven through the injector rather
//! than by calling the quarantine hook directly. The engine's obligation
//! in both cases is the paper's prefix-soundness (Thm 7.1/7.6): whatever
//! completes must be bitwise what a fault-free run computes, and whatever
//! is cut off must be skipped cleanly, never aborted.

use std::sync::Arc;

use air::lang::{parse_program, Concrete, SemCache, Universe};
use air::lattice::{par_map_governed, Budget, Governor};
use air::resilience::{
    FailSwitch, FaultInjector, FaultKind, FaultPlan, FaultSpec, InjectSink, Supervisor,
};
use air::trace::{MemorySink, Tracer};

fn plan(faults: Vec<FaultSpec>) -> FaultPlan {
    FaultPlan { seed: 0, faults }
}

/// A supervised panic at item 3 and a governor cancellation at item 5,
/// both injected at trace sites inside the workers of a governed sweep.
/// The panic must be retried to success, the cancellation must skip the
/// remaining items as `None`, and neither may unwind into the caller.
#[test]
fn supervised_panic_races_governor_cancellation() {
    let governor = Governor::new(Budget::fuel(1_000_000));
    let injector = FaultInjector::armed(
        &plan(vec![
            FaultSpec {
                site: "work.3".into(),
                after: 0,
                kind: FaultKind::Panic,
            },
            FaultSpec {
                site: "work.5".into(),
                after: 0,
                kind: FaultKind::Cancel,
            },
        ]),
        governor.clone(),
        FailSwitch::new(),
    );
    let tracer = Tracer::new(Arc::new(InjectSink::new(
        Arc::new(MemorySink::new()),
        injector.clone(),
    )));
    let supervisor = Supervisor::default();
    let items: Vec<usize> = (0..8).collect();
    // One worker keeps the schedule deterministic: the cancel at item 5
    // must skip exactly items 6 and 7.
    let results = par_map_governed(1, &items, &governor, |_, &i| {
        supervisor
            .run(&format!("work.{i}"), || {
                let _span = tracer.span(|| format!("work.{i}"));
                i * 10
            })
            .expect("one-shot injected panic must converge under retry")
    });
    assert_eq!(injector.injected(), 2, "{:?}", injector.fired_log());
    assert_eq!(supervisor.retry_count(), 1);
    for (i, slot) in results.iter().enumerate() {
        if i <= 5 {
            assert_eq!(*slot, Some(i * 10), "item {i} should have completed");
        } else {
            assert_eq!(*slot, None, "item {i} should be skipped after cancel");
        }
    }
}

/// The cache error path, driven end-to-end through the injector: a
/// `PoisonShard` fault fired from a `cache.exec` trace event poisons the
/// exec table mid-evaluation; every later access must quarantine and
/// fall back to uncached evaluation, and the final result must be
/// bitwise identical to the reference (uncached) semantics.
#[test]
fn poisoned_exec_cache_quarantines_and_stays_bitwise_correct() {
    let u = Universe::new(&[("x", 0, 24), ("y", 0, 24)]).unwrap();
    let prog = parse_program("while (x < 24) do { x := x + 1; y := x }").unwrap();
    let sem = Concrete::new(&u);
    let input = u.filter(|s| s[0] == 0);

    let governor = Governor::unlimited();
    let injector = FaultInjector::armed(
        &plan(vec![FaultSpec {
            site: "cache.exec".into(),
            after: 1,
            kind: FaultKind::PoisonShard {
                table: "exec".into(),
                shard: 0,
            },
        }]),
        governor,
        FailSwitch::new(),
    );
    let tracer = Tracer::new(Arc::new(InjectSink::new(
        Arc::new(MemorySink::new()),
        injector.clone(),
    )));
    let cache = SemCache::new();
    cache.set_tracer(&tracer);
    // Widen the blast radius to every shard so the regression does not
    // depend on which shard the current keys happen to hash into.
    let hooked = cache.clone();
    injector.on_poison(move |table, _| {
        for shard in 0..16 {
            hooked.chaos_poison_shard(table, shard);
        }
    });

    let cached = cache.exec(&sem, &prog, &input).unwrap();
    let reference = sem.exec(&prog, &input).unwrap();
    assert_eq!(injector.injected(), 1, "{:?}", injector.fired_log());
    assert!(
        cache.quarantine_count() >= 1,
        "poisoned shards were never quarantined"
    );
    assert_eq!(cached, reference);
    // The quarantined cache keeps serving correct results afterwards.
    assert_eq!(cache.exec(&sem, &prog, &input).unwrap(), reference);
}
