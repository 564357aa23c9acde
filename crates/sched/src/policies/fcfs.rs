//! Strict first-come-first-served.

use crate::policy::{sort_multifactor, HoldReason, QueuePolicy, SchedCtx, Verdict};
use crate::scheduler::{ProfileCell, QueuedJob};

/// Strict FCFS: the queue (in priority order) starts from the front until
/// the first job that does not fit; everything behind it waits, however
/// small. The paper's worst case for the workflow strategy — every
/// inter-step queue pass pays the full head-of-line wait.
#[derive(Debug, Clone, Default)]
pub struct Fcfs {
    blocked: bool,
}

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs::default()
    }
}

impl QueuePolicy for Fcfs {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn begin_cycle(&mut self, _ctx: &SchedCtx<'_>) {
        self.blocked = false;
    }

    fn order(&mut self, queue: &mut [QueuedJob], ctx: &SchedCtx<'_>) {
        sort_multifactor(queue, ctx);
    }

    fn admit(
        &mut self,
        job: &QueuedJob,
        _profile: &mut ProfileCell<'_>,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        match ctx.live_check(job.demand()) {
            Ok(()) if !self.blocked => Verdict::Start,
            // The machine would fit the job: pure head-of-line blocking.
            Ok(()) => Verdict::Hold(HoldReason::PolicyHold),
            Err(reason) => Verdict::Hold(reason),
        }
    }

    fn held(&mut self, _job: &QueuedJob, _profile: &mut ProfileCell<'_>, _ctx: &SchedCtx<'_>) {
        self.blocked = true;
    }
}
