//! Governed execution: a repair whose Kleene/repair loops would grind
//! through many rounds must stop at a budget cutoff — and the partial
//! result it surfaces must still be *sound* (an over-approximation of the
//! concrete semantics), because abstract interpretation is sound in every
//! pointed refinement; only precision needs the completed repair
//! (Theorems 7.1/7.6 of the paper).

use air::core::{BackwardRepair, EnumDomain, ForwardRepair, RepairError, Verifier};
use air::domains::IntervalEnv;
use air::lang::{parse_program, Concrete, SemCache, Universe};
use air::lattice::{Budget, ExhaustReason, Governor};
use std::time::Duration;

/// A wide two-counter loop: enough Kleene rounds and repair candidates
/// that a small fuel budget always trips mid-run.
fn slow_instance() -> (Universe, &'static str) {
    (
        Universe::new(&[("x", 0, 120), ("y", 0, 120)]).unwrap(),
        "while (y >= 1) do { x := x + 1; y := y - 1 }",
    )
}

#[test]
fn backward_repair_exhausts_with_sound_partial_invariant() {
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let sem = Concrete::new(&u);
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let engine = BackwardRepair::new(&u).governor(Governor::new(Budget::fuel(5)));
    let err = engine.repair(&dom, &input, &prog, &spec).unwrap_err();
    let RepairError::Exhausted(partial) = err else {
        panic!("expected exhaustion, got {err:?}");
    };
    assert_eq!(partial.exhaustion.reason, ExhaustReason::Fuel);
    assert!(partial.exhaustion.spent >= 5);
    // Soundness of the cut-off run: the partial invariant must cover the
    // true collecting semantics of the program on this input.
    let inv = partial
        .invariant
        .expect("enriched partial carries an invariant");
    let conc = sem.exec(&prog, &input).unwrap();
    assert!(
        conc.is_subset(&inv),
        "partial invariant must over-approximate the concrete semantics"
    );
}

#[test]
fn forward_repair_exhausts_under_fuel() {
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let engine = ForwardRepair::new(&u).governor(Governor::new(Budget::fuel(2)));
    let err = engine.repair(dom, &prog, &input).unwrap_err();
    assert!(
        err.exhaustion().is_some(),
        "forward repair must surface the cutoff, got {err:?}"
    );
}

#[test]
fn deadline_budget_stops_a_long_verify() {
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let verifier = Verifier::new(&u).governor(Governor::new(Budget {
        fuel: None,
        timeout: Some(Duration::ZERO),
    }));
    let err = verifier.backward(dom, &prog, &input, &spec).unwrap_err();
    let ex = err.exhaustion().expect("deadline cutoff");
    assert_eq!(ex.reason, ExhaustReason::Deadline);
}

#[test]
fn cancellation_stops_the_engine() {
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let governor = Governor::cancellable();
    governor.cancel();
    let verifier = Verifier::new(&u).governor(governor);
    let err = verifier.backward(dom, &prog, &input, &spec).unwrap_err();
    let ex = err.exhaustion().expect("cancellation cutoff");
    assert_eq!(ex.reason, ExhaustReason::Cancelled);
}

#[test]
fn zero_fuel_exhausts_before_any_work() {
    // Edge case: a zero budget must trip at the very first loop-head
    // check, not underflow or loop forever.
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let engine = BackwardRepair::new(&u).governor(Governor::new(Budget::fuel(0)));
    let err = engine.repair(&dom, &input, &prog, &spec).unwrap_err();
    let RepairError::Exhausted(partial) = err else {
        panic!("expected exhaustion, got {err:?}");
    };
    assert_eq!(partial.exhaustion.reason, ExhaustReason::Fuel);
    assert!(
        partial.points.is_empty(),
        "no repair points can be found on zero fuel"
    );
}

#[test]
fn already_expired_deadline_exhausts_immediately() {
    // A governor built from an elapsed deadline (not just Duration::ZERO)
    // must stop the engine at the first check.
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let governor = Governor::new(Budget {
        fuel: None,
        timeout: Some(Duration::from_nanos(1)),
    });
    std::thread::sleep(Duration::from_millis(2));
    let verifier = Verifier::new(&u).governor(governor);
    let err = verifier.backward(dom, &prog, &input, &spec).unwrap_err();
    let ex = err.exhaustion().expect("expired-deadline cutoff");
    assert_eq!(ex.reason, ExhaustReason::Deadline);
}

#[test]
fn cancellation_raced_from_another_thread_yields_sound_partial() {
    // The cancel lands mid-run (the canceller waits for the engine to
    // spend its first tick), so the engine must stop at the next check
    // and surface a sound partial result.
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let sem = Concrete::new(&u);
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let governor = Governor::cancellable();
    let canceller = {
        let governor = governor.clone();
        std::thread::spawn(move || {
            while governor.spent() == 0 {
                std::thread::yield_now();
            }
            governor.cancel();
        })
    };
    let engine = BackwardRepair::new(&u).governor(governor);
    let err = engine.repair(&dom, &input, &prog, &spec).unwrap_err();
    canceller.join().unwrap();
    let RepairError::Exhausted(partial) = err else {
        panic!("expected exhaustion, got {err:?}");
    };
    assert_eq!(partial.exhaustion.reason, ExhaustReason::Cancelled);
    assert!(partial.exhaustion.spent >= 1);
    if let Some(inv) = &partial.invariant {
        let conc = sem.exec(&prog, &input).unwrap();
        assert!(
            conc.is_subset(inv),
            "cancelled run's partial invariant must stay an over-approximation"
        );
    }
}

#[test]
fn every_fuel_level_yields_a_sound_partial_or_the_full_answer() {
    // Sweeping the cutoff point across the whole run: wherever the budget
    // trips, the surfaced partial invariant over-approximates the concrete
    // semantics (soundness holds in every pointed refinement, Thm 7.6);
    // and once fuel suffices, the outcome agrees with the unbudgeted run.
    // A narrower universe than `slow_instance` keeps the seven repair
    // runs fast; the countdown still needs enough rounds to trip tight
    // budgets mid-run.
    let u = Universe::new(&[("x", 0, 30), ("y", 0, 30)]).unwrap();
    let code = "while (y >= 1) do { x := x + 1; y := y - 1 }";
    let prog = parse_program(code).unwrap();
    let sem = Concrete::new(&u);
    let input = u.filter(|s| s[0] == 0 && s[1] == 30);
    let spec = u.filter(|s| s[0] == 30 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let conc = sem.exec(&prog, &input).unwrap();
    let unbudgeted = BackwardRepair::new(&u)
        .repair(&dom, &input, &prog, &spec)
        .unwrap();
    let mut exhausted = 0;
    for fuel in [0, 1, 2, 3, 5, 8, 1_000_000] {
        let engine = BackwardRepair::new(&u).governor(Governor::new(Budget::fuel(fuel)));
        match engine.repair(&dom, &input, &prog, &spec) {
            Ok(out) => {
                assert_eq!(
                    out.valid_input, unbudgeted.valid_input,
                    "fuel {fuel}: enough budget must reproduce the full answer"
                );
            }
            Err(RepairError::Exhausted(partial)) => {
                exhausted += 1;
                assert_eq!(
                    partial.exhaustion.reason,
                    ExhaustReason::Fuel,
                    "fuel {fuel}"
                );
                if let Some(inv) = &partial.invariant {
                    assert!(
                        conc.is_subset(inv),
                        "fuel {fuel}: partial invariant must over-approximate"
                    );
                }
            }
            Err(e) => panic!("fuel {fuel}: unexpected error {e:?}"),
        }
    }
    assert!(exhausted >= 3, "the tight fuel levels must actually trip");
}

#[test]
fn symbolic_backward_exhausts_with_sound_partial_invariant() {
    // The symbolic fixpoint loop obeys the same governor contract as the
    // enumerative one: fuel running out mid-iteration surfaces
    // RepairError::Exhausted with a sound partial result — never a panic.
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let sem = Concrete::new(&u);
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let verifier =
        Verifier::with_cache(&u, SemCache::symbolic()).governor(Governor::new(Budget::fuel(5)));
    let err = verifier.backward(dom, &prog, &input, &spec).unwrap_err();
    let RepairError::Exhausted(partial) = err else {
        panic!("expected exhaustion, got {err:?}");
    };
    assert_eq!(partial.exhaustion.reason, ExhaustReason::Fuel);
    assert!(partial.exhaustion.spent >= 5);
    let inv = partial
        .invariant
        .expect("symbolic partial carries an invariant");
    let conc = sem.exec(&prog, &input).unwrap();
    assert!(
        conc.is_subset(&inv),
        "symbolic partial invariant must over-approximate the concrete semantics"
    );
}

#[test]
fn symbolic_zero_fuel_exhausts_before_any_work() {
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let verifier =
        Verifier::with_cache(&u, SemCache::symbolic()).governor(Governor::new(Budget::fuel(0)));
    let err = verifier.backward(dom, &prog, &input, &spec).unwrap_err();
    let RepairError::Exhausted(partial) = err else {
        panic!("expected exhaustion, got {err:?}");
    };
    assert_eq!(partial.exhaustion.reason, ExhaustReason::Fuel);
    assert!(
        partial.points.is_empty(),
        "no repair points can be found on zero fuel"
    );
}

#[test]
fn symbolic_cancellation_stops_the_engine() {
    let (u, code) = slow_instance();
    let prog = parse_program(code).unwrap();
    let input = u.filter(|s| s[0] == 0 && s[1] == 120);
    let spec = u.filter(|s| s[0] == 120 && s[1] == 0);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let governor = Governor::cancellable();
    governor.cancel();
    let verifier = Verifier::with_cache(&u, SemCache::symbolic()).governor(governor);
    let err = verifier.backward(dom, &prog, &input, &spec).unwrap_err();
    let ex = err.exhaustion().expect("cancellation cutoff");
    assert_eq!(ex.reason, ExhaustReason::Cancelled);
}

#[test]
fn symbolic_fuel_sweep_yields_sound_partial_or_the_enumerative_answer() {
    // Sweep the cutoff across the symbolic run of both strategies: every
    // exhaustion must carry a sound invariant, and every completion must
    // agree with the *enumerative* unbudgeted answer — soundness and
    // backend agreement in one pass. Forward repair restarts the loop
    // after each of its ~n² points, so it sweeps a shorter countdown.
    let code = "while (y >= 1) do { x := x + 1; y := y - 1 }";
    let prog = parse_program(code).unwrap();
    for (n, forward) in [(30, false), (8, true)] {
        let u = Universe::new(&[("x", 0, n), ("y", 0, n)]).unwrap();
        let input = u.filter(|s| s[0] == 0 && s[1] == n);
        let spec = u.filter(|s| s[0] == n && s[1] == 0);
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let conc = Concrete::new(&u).exec(&prog, &input).unwrap();
        let run = |verifier: Verifier| {
            if forward {
                verifier.forward(dom.clone(), &prog, &input, &spec)
            } else {
                verifier.backward(dom.clone(), &prog, &input, &spec)
            }
        };
        let unbudgeted = run(Verifier::new(&u)).unwrap();
        let mut exhausted = 0;
        for fuel in [0, 1, 2, 3, 5, 8, 1_000_000] {
            let case = format!("forward {forward}, fuel {fuel}");
            let verifier = Verifier::with_cache(&u, SemCache::symbolic())
                .governor(Governor::new(Budget::fuel(fuel)));
            match run(verifier) {
                Ok(v) => {
                    assert_eq!(
                        v.valid_input(),
                        unbudgeted.valid_input(),
                        "{case}: completed symbolic run must match the enumerative answer"
                    );
                    assert_eq!(v.report(&u), unbudgeted.report(&u), "{case}");
                }
                Err(RepairError::Exhausted(partial)) => {
                    exhausted += 1;
                    assert_eq!(partial.exhaustion.reason, ExhaustReason::Fuel, "{case}");
                    let inv = partial.invariant.as_ref().expect("partial invariant");
                    assert!(
                        conc.is_subset(inv),
                        "{case}: symbolic partial invariant must over-approximate"
                    );
                }
                Err(e) => panic!("{case}: unexpected error {e:?}"),
            }
        }
        assert!(exhausted >= 3, "the tight fuel levels must actually trip");
    }
}

#[test]
fn unlimited_governor_changes_nothing() {
    // The governed run with no budget must agree bit-for-bit with the
    // ungoverned verifier (the disabled governor is the zero-cost path).
    let u = Universe::new(&[("x", -8, 8)]).unwrap();
    let prog = parse_program("if (x >= 1) then { skip } else { x := 1 - x }").unwrap();
    let input = u.filter(|s| s[0] != 0);
    let spec = u.filter(|s| s[0] >= 1);
    let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
    let plain = Verifier::new(&u)
        .backward(dom.clone(), &prog, &input, &spec)
        .unwrap();
    let governed = Verifier::new(&u)
        .governor(Governor::unlimited())
        .backward(dom, &prog, &input, &spec)
        .unwrap();
    assert_eq!(plain.is_proved(), governed.is_proved());
    assert_eq!(plain.added_points(), governed.added_points());
}
