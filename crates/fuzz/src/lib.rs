//! Theorem-oracle fuzzing for the AIR engines.
//!
//! The paper's guarantees are executable on finite universes, so they
//! make ideal fuzzing oracles: this crate generates random (program,
//! domain, precondition, spec) instances with the seeded generators of
//! [`air_lang::gen`], checks the ten theorem oracles of
//! [`air_core::oracles`] and [`air_cegar::oracle`] against the
//! enumerative concrete semantics, and cross-checks every engine
//! configuration pairwise (cached/uncached, governed/ungoverned,
//! sequential/parallel, repair vs `LCL_A`). Failures are minimized by a
//! greedy structural shrinker and persisted as replayable seed files
//! under `corpus/fuzz/`, which `tests/fuzz_regressions.rs` replays on
//! every CI run.
//!
//! Everything is deterministic: a campaign's JSON report is a pure
//! function of its options (no wall-clock data), so CI can diff two
//! runs byte-for-byte.
//!
//! Pipeline: [`FuzzCase::generate`] → [`FuzzCase::build`] →
//! [`oracles::run`] + [`diff::differential_sweep`] → [`shrink::shrink`]
//! → [`seed::render`]. The `air fuzz` CLI subcommand wraps
//! [`run_campaign`], [`replay_case`] and [`minimize`].

pub mod case;
pub mod checkpoint;
pub mod diff;
pub mod oracles;
pub mod runner;
pub mod seed;
pub mod shrink;

pub use air_core::build_domain;
pub use case::{BuiltCase, FuzzCase};
pub use runner::{
    minimize, rebuild_failures, replay_case, run_campaign, CampaignReport, CampaignWatch,
    CaseOutcome, Failure, FuzzOptions, OracleRow,
};
pub use shrink::shrink;
