//! Failpoint sweep: force every registered fault-injection site in turn
//! over generated programs, asserting the fault-isolation contract on
//! arbitrary corpus modules instead of the curated suite.
//!
//! For each site in [`spt_core::failpoint::sites`] and each seed in the
//! slice, the sweep arms the site (a `panic` action at `Contained` sites,
//! an `error` action at `ErrorChannel` sites) and pushes the generated
//! module through the full pipeline. The contract:
//!
//! * **no panic ever escapes**, whatever the site;
//! * a `Contained` site's compile **succeeds**, and the (degraded)
//!   transformed module still computes baseline semantics;
//! * an `ErrorChannel` site yields either a clean `PipelineError` or a
//!   successful degraded compile — again with baseline semantics when it
//!   succeeds.
//!
//! The failpoint registry is process-global, so the whole sweep holds
//! [`crate::oracle::global_state_lock`] and runs sequentially. One site
//! needs special staging: `superblock::lower` only fires while the
//! superblock tier is lowering, i.e. under an `ExecTier::Super` override.

#![cfg(feature = "failpoints")]

use crate::gen::generate;
use crate::oracle::{check_program, global_state_lock, CheckOptions, Failure, OracleKind};
use spt_core::failpoint::{self, Action, SiteKind};
use spt_ir::{set_exec_tier_override, ExecTier};

/// One sweep violation.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// The forced site.
    pub site: &'static str,
    /// The module's seed.
    pub seed: u64,
    /// What broke.
    pub failure: Failure,
}

/// Aggregate sweep result.
#[derive(Clone, Debug, Default)]
pub struct SweepOutcome {
    /// (site, seed) combinations exercised.
    pub runs: usize,
    /// Contract violations.
    pub failures: Vec<SweepFailure>,
}

impl SweepOutcome {
    /// True when the degradation contract held everywhere.
    pub fn is_green(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Restores the exec-tier override on drop.
struct TierRestore;
impl Drop for TierRestore {
    fn drop(&mut self) {
        set_exec_tier_override(None);
    }
}

/// Sweeps every registered site over `count` seeds starting at
/// `start_seed`. Call inside [`crate::runner::with_quiet_panic_hook`] —
/// contained panics are the *point* of the sweep.
pub fn sweep_failpoints(start_seed: u64, count: usize, opts: &CheckOptions) -> SweepOutcome {
    let _guard = global_state_lock();
    let mut outcome = SweepOutcome::default();

    for site in failpoint::sites() {
        // Only the battery's base compile + semantics oracles run under
        // injection: report-identity oracles would recompile with the
        // fault still armed and trivially agree, telling us nothing.
        let sweep_opts = CheckOptions {
            config: opts.config.clone(),
            check_threads: false,
            check_tiers: false,
            cache_root: None,
        };
        // The superblock lowering hook only runs while the fused tier is
        // active.
        let _tier = if site.name == "superblock::lower" {
            set_exec_tier_override(Some(ExecTier::Super));
            Some(TierRestore)
        } else {
            None
        };

        for i in 0..count as u64 {
            let seed = start_seed + i;
            let p = generate(seed);
            let _scope = failpoint::scoped();
            match site.kind {
                SiteKind::Contained => {
                    failpoint::set(site.name, Action::panic("corpus sweep injected panic"))
                }
                SiteKind::ErrorChannel => {
                    failpoint::set(site.name, Action::error("corpus sweep injected error"))
                }
            }
            outcome.runs += 1;
            for failure in check_program(&(&p).into(), &sweep_opts) {
                let ok = match (site.kind, failure.kind) {
                    // An ErrorChannel fault surfacing as a clean pipeline
                    // error is the contract, not a violation.
                    (SiteKind::ErrorChannel, OracleKind::CleanFailure) => {
                        failure.detail.contains("failpoint")
                            || failure.detail.contains("corpus sweep")
                    }
                    _ => false,
                };
                if !ok {
                    outcome.failures.push(SweepFailure {
                        site: site.name,
                        seed,
                        failure,
                    });
                }
            }
        }
        set_exec_tier_override(None);
    }
    outcome
}
