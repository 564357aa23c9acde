//! The built-in queue policies.
//!
//! Five [`QueuePolicy`](crate::policy::QueuePolicy) implementations ship
//! with the scheduler:
//!
//! * [`Fcfs`] — strict first-come-first-served;
//! * [`EasyBackfill`] — EASY backfilling (the production default);
//! * [`ConservativeBackfill`] — conservative backfilling;
//! * [`PriorityBackfill`] — EASY mechanics + hard aging (no starvation);
//! * [`QuantumAware`] — EASY mechanics + idle-QPU boosting.
//!
//! Each is a ~40-line module; a sixth policy is an `impl QueuePolicy`
//! away (see the worked example on [`crate::policy`]) and runs through
//! [`BatchScheduler::custom`](crate::BatchScheduler::custom).

use crate::policy::{HoldReason, SchedCtx, Verdict};
use crate::scheduler::{ProfileCell, QueuedJob};
use hpcqc_simcore::time::SimTime;

mod conservative;
mod easy;
mod fcfs;
mod priority;
mod quantum;

pub use conservative::ConservativeBackfill;
pub use easy::EasyBackfill;
pub use fcfs::Fcfs;
pub use priority::PriorityBackfill;
pub use quantum::QuantumAware;

/// Shared EASY-style admission: before the head blocks, anything the
/// live cluster can place starts; afterwards a job may only backfill —
/// start now without delaying the head's reservation already carved into
/// the profile.
///
/// The live check runs first and its failure is the hold reason; the
/// profile walk — and so the cycle's profile build — runs only for a job
/// the machine could place right now, and only once the head is blocked.
pub(crate) fn easy_admit(
    head_blocked: bool,
    job: &QueuedJob,
    profile: &mut ProfileCell<'_>,
    ctx: &SchedCtx<'_>,
) -> Verdict {
    match ctx.live_check(job.demand()) {
        Ok(())
            if !head_blocked
                || profile
                    .get()
                    .find_slot(job.demand(), job.walltime, ctx.now())
                    == ctx.now() =>
        {
            Verdict::Start
        }
        // The machine would fit the job right now; only the head's shadow
        // reservation stands in the way.
        Ok(()) => Verdict::Hold(HoldReason::HeadShadow),
        Err(reason) => Verdict::Hold(reason),
    }
}

/// Shared EASY-style hold handling: the first held job becomes the head;
/// its earliest feasible slot (the "shadow time") is reserved so nothing
/// backfilled later in the cycle can delay it.
pub(crate) fn easy_held(
    head_blocked: &mut bool,
    job: &QueuedJob,
    profile: &mut ProfileCell<'_>,
    ctx: &SchedCtx<'_>,
) {
    if !*head_blocked {
        *head_blocked = true;
        let profile = profile.get();
        let shadow = profile.find_slot(job.demand(), job.walltime, ctx.now());
        if shadow != SimTime::MAX {
            profile.reserve(job.demand(), shadow, job.walltime);
        }
    }
}
