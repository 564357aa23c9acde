//! Conservative backfilling.

use crate::policy::{sort_multifactor, HoldReason, QueuePolicy, SchedCtx, Verdict};
use crate::scheduler::{ProfileCell, QueuedJob};

/// Conservative backfilling: *every* job that cannot start now reserves
/// its earliest feasible slot, so a later job may jump ahead only if it
/// delays nobody. Stronger guarantees than EASY, at the cost of a profile
/// that grows with queue depth (see `crates/bench/benches/sched.rs`).
#[derive(Debug, Clone, Default)]
pub struct ConservativeBackfill;

impl ConservativeBackfill {
    /// Creates the policy.
    pub fn new() -> Self {
        ConservativeBackfill
    }
}

impl QueuePolicy for ConservativeBackfill {
    fn name(&self) -> &str {
        "conservative-backfill"
    }

    fn order(&mut self, queue: &mut [QueuedJob], ctx: &SchedCtx<'_>) {
        sort_multifactor(queue, ctx);
    }

    fn admit(
        &mut self,
        job: &QueuedJob,
        profile: &mut ProfileCell<'_>,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        let demand = job.demand();
        let live = ctx.live_check(demand);
        // Every job walks the profile, so conservative builds it in every
        // cycle with a queue.
        let profile = profile.get();
        let slot = profile.find_slot(demand, job.walltime, ctx.now());
        if slot > ctx.now() {
            // Reserve its future slot so later jobs cannot delay it.
            profile.reserve(demand, slot, job.walltime);
            // Fits the live machine but not the reservation timeline →
            // an earlier job's reservation is what the job waits on.
            Verdict::Hold(live.err().unwrap_or(HoldReason::HeadShadow))
        } else {
            match live {
                Ok(()) => Verdict::Start,
                Err(reason) => Verdict::Hold(reason),
            }
        }
    }
}
