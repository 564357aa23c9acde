//! Lockstep oracle for the lazily built availability profile. Every
//! built-in policy runs beside the same policy wrapped so that it builds
//! the cycle's profile at the first admission of every cycle, before any
//! job can start (the eager order the scheduler used to follow). The
//! lazy scheduler builds it only when the policy first reads it, after
//! some jobs may already have started. Driven through the same queues,
//! completions, walltime overruns and node failures, the two must start
//! the same jobs on the same allocations, record the same holds and leave
//! the same queue order in every cycle.

mod common;

use common::{all_policies, op, shape, Lockstep, Op};
use hpcqc_sched::{
    BatchScheduler, PolicySpec, ProfileCell, QueuePolicy, QueuedJob, SchedCtx, Verdict,
};
use proptest::prelude::*;

/// A policy that builds the profile at the first admission of each cycle
/// and otherwise defers to the wrapped policy.
#[derive(Debug)]
struct Eager {
    inner: Box<dyn QueuePolicy>,
    built: bool,
}

impl QueuePolicy for Eager {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_cycle(&mut self, ctx: &SchedCtx<'_>) {
        self.built = false;
        self.inner.begin_cycle(ctx);
    }

    fn order(&mut self, queue: &mut [QueuedJob], ctx: &SchedCtx<'_>) {
        self.inner.order(queue, ctx);
    }

    fn admit(
        &mut self,
        job: &QueuedJob,
        profile: &mut ProfileCell<'_>,
        ctx: &SchedCtx<'_>,
    ) -> Verdict {
        if !self.built {
            profile.get();
            self.built = true;
        }
        self.inner.admit(job, profile, ctx)
    }

    fn held(&mut self, job: &QueuedJob, profile: &mut ProfileCell<'_>, ctx: &SchedCtx<'_>) {
        self.inner.held(job, profile, ctx);
    }
}

/// The lazy built-in policy (first) against its eager twin (second).
fn lockstep(shape: common::Shape, spec: PolicySpec) -> Lockstep {
    let eager = BatchScheduler::custom(Box::new(Eager {
        inner: spec.build(),
        built: false,
    }))
    .with_priority(spec.calculator());
    Lockstep::new(shape, [BatchScheduler::new(spec), eager])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Building the profile late never changes a decision. A cycle runs
    /// only after operations flagged `true`, so several submissions and
    /// completions can pile up and one cycle starts many jobs.
    #[test]
    fn lazy_profile_matches_eager_build(
        shape in shape(),
        ops in prop::collection::vec((op(), (0u32..3).prop_map(|n| n == 0)), 1..100),
    ) {
        for spec in all_policies() {
            let mut run = lockstep(shape, spec);
            for (op, cycle) in ops.iter().cloned() {
                run.apply(op)?;
                if cycle {
                    run.cycle(&spec.to_string())?;
                }
            }
            run.cycle(&spec.to_string())?;
            let [lazy, eager] = &run.probes;
            prop_assert!(lazy.builds <= eager.builds, "{}", spec);
        }
    }
}

/// A fixed scenario where a start precedes the head's shadow reservation
/// in the same cycle: the profile the head plans against must already
/// carry that start, or a later job backfills into capacity the start
/// holds. Also pins that the lazy scheduler builds strictly fewer
/// profiles than the eager one and that multi-start cycles and overruns
/// are reached.
#[test]
fn start_before_build_is_reflected_in_the_shadow() {
    let nodes =
        |n: u32, walltime: u64, boost: f64| Op::Submit(vec![(0, n, vec![])], walltime, 0, boost);
    // Ten classical nodes; QoS boosts fix the queue order. Job 0 (6 nodes,
    // 100 s) starts; job 1 (8 nodes, 50 s) is the head, its shadow at
    // t=100 when job 0 ends; job 2 (4 nodes, 60 s) fits the live machine
    // and ends before the shadow, so it backfills. Planned against a
    // profile without job 0, the head would shadow at t=0 and job 2 would
    // be held.
    let ops = [
        nodes(6, 100, 30.0),
        nodes(8, 50, 20.0),
        nodes(4, 60, 0.0),
        Op::Advance(0),
        Op::Advance(100),
        nodes(1, 30, 0.0),
        nodes(1, 30, 0.0),
        Op::Overrun(500),
        nodes(2, 30, 0.0),
        Op::Advance(1_000),
    ];
    for spec in all_policies() {
        let mut run = lockstep((10, 1, 1, 0, 0), spec);
        for op in ops.iter().cloned() {
            let cycle = !matches!(op, Op::Submit(..));
            run.apply(op).unwrap();
            if cycle {
                run.cycle(&spec.to_string()).unwrap();
            }
        }
        run.cycle(&spec.to_string()).unwrap();
        assert!(run.multi_start_cycles >= 1, "{spec}: no multi-start cycle");
        let [lazy, eager] = &run.probes;
        if spec != PolicySpec::conservative() {
            assert!(
                lazy.builds < eager.builds,
                "{spec}: lazy {} vs eager {} builds",
                lazy.builds,
                eager.builds
            );
        }
    }
}
