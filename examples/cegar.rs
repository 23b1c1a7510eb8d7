//! Section 6: CEGAR as Abstract Interpretation Repair.
//!
//! The same program property is model-checked with three refinement
//! heuristics — the classic CEGAR split, the forward-AIR pointed shell
//! (Theorem 6.2) and the backward-AIR `V_k` split (Theorem 6.4) — and the
//! run statistics are compared. Backward repair leaves no residual
//! spurious path along a counterexample (Fig. 3), so it typically proves
//! safety in the fewest iterations.
//!
//! Run with `cargo run --example cegar`.

use air::cegar::driver::{Cegar, CegarResult, Heuristic};
use air::cegar::moore::MooreCegar;
use air::cegar::partition::Partition;
use air::cegar::program_ts::ProgramTs;
use air::core::EnumDomain;
use air::lang::{parse_program, Universe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // AbsVal once more, now as a reachability property: from odd inputs,
    // can the program exit with x = 0?
    let universe = Universe::new(&[("x", -6, 6)])?;
    let prog = parse_program("if (x >= 0) then { skip } else { x := 0 - x }")?;
    let pts = ProgramTs::compile(&universe, &prog)?;
    let odd = universe.filter(|s| s[0] % 2 != 0);
    let spec = universe.filter(|s| s[0] != 0);
    let init = pts.init_states(&odd);
    let bad = pts.bad_states(&spec);

    println!("program:   {prog}");
    println!(
        "TS size:   {} states, {} transitions",
        pts.ts().num_states(),
        pts.ts().num_edges()
    );
    println!("property:  exit with x = 0 unreachable from odd inputs\n");

    // Initial abstraction: predicate "control location" only — the
    // standard starting point of software model checking.
    let loc = Partition::from_key(pts.ts().num_states(), |s| pts.location_of(s));

    println!(
        "{:<14} {:>10} {:>12} {:>8} {:>13}",
        "heuristic", "iterations", "refinements", "splits", "final blocks"
    );
    for h in Heuristic::ALL {
        let res = Cegar::new(pts.ts(), &init, &bad, h)
            .initial_partition(loc.clone())
            .run()?;
        let s = res.stats();
        println!(
            "{:<14} {:>10} {:>12} {:>8} {:>13}",
            h.label(),
            s.iterations,
            s.refinements,
            s.splits,
            s.final_blocks
        );
        assert!(res.is_safe(), "{} must prove safety", h.label());
    }

    // Beyond partitions: the same property via a Moore-family abstraction
    // (arbitrary closure on ℘(Σ)) starting from the trivial domain {Σ} —
    // the generality Section 6 claims over early abstract model checking.
    let moore = MooreCegar::new(
        pts.ts(),
        &init,
        &bad,
        EnumDomain::trivial(&pts.ts().universe()),
    )
    .run()?;
    let ms = moore.stats();
    println!(
        "\nMoore-family run (no partitions): safe = {}, rounds = {}, points added = {}",
        moore.is_safe(),
        ms.rounds,
        ms.points_added
    );
    assert!(moore.is_safe());

    // A buggy variant is refuted with a concrete counterexample.
    println!("\nbuggy variant (skips the negation):");
    let buggy = parse_program("if (x > 0) then { skip } else { skip }")?;
    let pts2 = ProgramTs::compile(&universe, &buggy)?;
    let init2 = pts2.init_states(&universe.filter(|s| s[0] % 2 == 0));
    let bad2 = pts2.bad_states(&spec);
    let res = Cegar::new(pts2.ts(), &init2, &bad2, Heuristic::BackwardAir).run()?;
    match res {
        CegarResult::Unsafe { path, stats, .. } => {
            println!(
                "  UNSAFE in {} iterations; concrete counterexample of length {}",
                stats.iterations,
                path.len()
            );
        }
        CegarResult::Safe { .. } => panic!("the buggy variant must be unsafe"),
    }

    println!("\nCEGAR-as-AIR demo complete.");
    Ok(())
}
