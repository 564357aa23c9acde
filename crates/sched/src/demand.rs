//! The free-capacity timeline ([`Profile`]) that backfilling plans
//! against, over dense resource rows.
//!
//! A job's demand and the cluster's free capacity are both
//! [`ResourceRow`]s: one count per slot of the cluster's
//! [`ResourceIndex`](hpcqc_cluster::ResourceIndex), computed once when
//! the job is submitted ([`Cluster::demand_row`](hpcqc_cluster::Cluster::demand_row))
//! or when a cycle starts ([`Cluster::free_row`](hpcqc_cluster::Cluster::free_row)).
//! A [`Profile`] is a piecewise-constant map `time → free row`, built from
//! the free row plus the expected release times of running jobs; its
//! segments live in one flat row-major buffer, and reservations carve
//! capacity out of it.

use hpcqc_cluster::resources::ResourceRow;
use hpcqc_simcore::time::{SimDuration, SimTime};

/// A piecewise-constant timeline of free capacity.
///
/// Segment `i` spans `[times[i], times[i+1])` with free capacity
/// `free[i * width..(i + 1) * width]`; the last segment extends to the far
/// horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    times: Vec<SimTime>,
    free: Vec<u32>,
    width: usize,
}

impl Profile {
    /// Builds the availability profile seen at `now`: current free capacity
    /// plus the capacity each running job returns at its expected end.
    ///
    /// `releases` pairs each expected release instant with the demand it
    /// frees; instants in the past are clamped to `now` (an overrunning job
    /// is optimistically assumed to finish imminently — re-planning happens
    /// on every completion event anyway, and real starts always re-validate
    /// against the live cluster).
    pub fn build<'a>(
        now: SimTime,
        current_free: &[u32],
        releases: impl IntoIterator<Item = (SimTime, &'a ResourceRow)>,
    ) -> Self {
        let width = current_free.len();
        let mut events: Vec<(SimTime, &ResourceRow)> =
            releases.into_iter().map(|(t, d)| (t.max(now), d)).collect();
        events.sort_by_key(|(t, _)| *t);
        let mut times = Vec::with_capacity(events.len() + 1);
        let mut free = Vec::with_capacity((events.len() + 1) * width);
        times.push(now);
        free.extend_from_slice(current_free);
        for (t, d) in events {
            if times.last() != Some(&t) {
                times.push(t);
                free.extend_from_within(free.len() - width..);
            }
            let last = free.len() - width;
            d.add_to(&mut free[last..]);
        }
        Profile { times, free, width }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.times.len()
    }

    /// The free capacity of segment `i`.
    fn row(&self, i: usize) -> &[u32] {
        &self.free[i * self.width..(i + 1) * self.width]
    }

    /// The segment holding instant `t`; instants before the profile start
    /// clamp to the first segment.
    fn segment_at(&self, t: SimTime) -> usize {
        match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// The free capacity at instant `t`.
    pub fn free_at(&self, t: SimTime) -> &[u32] {
        self.row(self.segment_at(t))
    }

    /// `true` if `demand` fits everywhere in `[start, start + duration)`.
    pub fn fits(&self, demand: &ResourceRow, start: SimTime, duration: SimDuration) -> bool {
        let end = start.saturating_add(duration);
        (self.segment_at(start)..self.segments())
            .take_while(|&i| self.times[i] < end)
            .all(|i| demand.fits_in(self.row(i)))
    }

    /// Earliest instant ≥ `from` at which `demand` fits for `duration`.
    ///
    /// Candidate starts are `from` and the segment boundaries after it
    /// (capacity only ever changes there), so the search is exact. One
    /// sweep: a segment that cannot hold the demand rules out every
    /// candidate up to its end. Returns [`SimTime::MAX`] if the demand can
    /// never fit (it exceeds total capacity).
    pub fn find_slot(&self, demand: &ResourceRow, duration: SimDuration, from: SimTime) -> SimTime {
        if demand.is_zero() {
            return from;
        }
        let mut start = from;
        let mut first = self.segment_at(from);
        // A boundary candidate always needs its own segment, even for a
        // zero duration; `from` needs only what its span overlaps.
        let mut boundary = false;
        loop {
            let end = start.saturating_add(duration);
            let miss = (first..self.segments())
                .take_while(|&i| self.times[i] < end || (boundary && i == first))
                .find(|&i| !demand.fits_in(self.row(i)));
            match miss {
                None => return start,
                Some(i) if i + 1 < self.segments() => {
                    first = i + 1;
                    start = self.times[first];
                    boundary = true;
                }
                Some(_) => return SimTime::MAX,
            }
        }
    }

    /// Carves `demand` out of the profile over `[start, start + duration)`,
    /// splitting segments at the boundaries as needed.
    pub fn reserve(&mut self, demand: &ResourceRow, start: SimTime, duration: SimDuration) {
        let end = start.saturating_add(duration);
        self.split_at(start);
        if end < SimTime::MAX {
            self.split_at(end);
        }
        let mut i = self.segment_at(start);
        while i < self.segments() && self.times[i] < end {
            let width = self.width;
            demand.take_from(&mut self.free[i * width..(i + 1) * width]);
            i += 1;
        }
    }

    fn split_at(&mut self, t: SimTime) {
        match self.times.binary_search(&t) {
            Ok(_) => {}
            Err(0) => {} // before profile start: nothing to split
            Err(i) => {
                self.times.insert(i, t);
                let w = self.width;
                // Copy segment `i - 1` to the end, then rotate it into place.
                self.free.extend_from_within((i - 1) * w..i * w);
                self.free[i * w..].rotate_right(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
    use hpcqc_cluster::cluster::ClusterBuilder;
    use hpcqc_cluster::gres::GresKind;

    /// A demand (or free capacity) of `nodes` on a one-partition cluster.
    fn demand(nodes: u32) -> ResourceRow {
        ResourceRow::from(vec![nodes])
    }

    fn free(nodes: u32) -> ResourceRow {
        demand(nodes)
    }

    #[test]
    fn demand_of_listing1() {
        let c = ClusterBuilder::new()
            .partition("classical", 10)
            .partition_with_gres("quantum", 1, GresKind::qpu(), 1)
            .build(SimTime::ZERO);
        let req = AllocRequest::new()
            .group(GroupRequest::nodes("classical", 10))
            .group(GroupRequest::gres("quantum", GresKind::qpu(), 1));
        let d = c.demand_row(&req).unwrap();
        assert_eq!(d[c.node_slot("classical").unwrap()], 10);
        assert_eq!(d[c.node_slot("quantum").unwrap()], 0);
        assert_eq!(d[c.gres_slot("quantum", &GresKind::qpu()).unwrap()], 1);
        assert!(!d.is_zero());
    }

    #[test]
    fn covers_and_subtract() {
        let mut a = free(10);
        let b = demand(4);
        assert!(b.fits_in(&a));
        b.take_from(&mut a);
        assert_eq!(a[0], 6);
        assert!(!demand(7).fits_in(&a));
        b.add_to(&mut a);
        assert_eq!(a[0], 10);
    }

    #[test]
    fn free_of_cluster_reflects_state() {
        let mut c = ClusterBuilder::new()
            .partition("classical", 8)
            .partition_with_gres("quantum", 1, GresKind::qpu(), 2)
            .build(SimTime::ZERO);
        let classical = c.node_slot("classical").unwrap();
        let qpu = c.gres_slot("quantum", &GresKind::qpu()).unwrap();
        let d = c.free_row();
        assert_eq!(d[classical], 8);
        assert_eq!(d[qpu], 2);
        c.allocate(
            &AllocRequest::new().group(GroupRequest::nodes("classical", 3)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(c.free_row()[classical], 5);
    }

    #[test]
    fn profile_releases_merge() {
        // free 2 now; 3 more at t=10; 5 more at t=20.
        let p = Profile::build(
            SimTime::ZERO,
            &free(2),
            [
                (SimTime::from_secs(10), &free(3)),
                (SimTime::from_secs(20), &free(5)),
            ],
        );
        assert_eq!(p.segments(), 3);
        assert_eq!(p.free_at(SimTime::from_secs(5)), &[2]);
        assert_eq!(p.free_at(SimTime::from_secs(10)), &[5]);
        assert_eq!(p.free_at(SimTime::from_secs(25)), &[10]);
    }

    #[test]
    fn find_slot_waits_for_release() {
        let p = Profile::build(
            SimTime::ZERO,
            &free(2),
            [(SimTime::from_secs(30), &free(4))],
        );
        // 4 nodes fit only after the release at t=30.
        assert_eq!(
            p.find_slot(&demand(4), SimDuration::from_secs(100), SimTime::ZERO),
            SimTime::from_secs(30)
        );
        // 2 nodes fit immediately.
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(100), SimTime::ZERO),
            SimTime::ZERO
        );
        // 7 nodes never fit.
        assert_eq!(
            p.find_slot(&demand(7), SimDuration::from_secs(1), SimTime::ZERO),
            SimTime::MAX
        );
    }

    #[test]
    fn reservation_blocks_slot() {
        let mut p = Profile::build(SimTime::ZERO, &free(4), []);
        p.reserve(
            &demand(3),
            SimTime::from_secs(50),
            SimDuration::from_secs(100),
        );
        // A 2-node job for 40 s fits before the reservation...
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(40), SimTime::ZERO),
            SimTime::ZERO
        );
        // ... but a 2-node job for 60 s would overlap it, so it must wait
        // for the reservation to end at t=150.
        assert_eq!(
            p.find_slot(&demand(2), SimDuration::from_secs(60), SimTime::ZERO),
            SimTime::from_secs(150)
        );
    }

    #[test]
    fn fits_checks_whole_span() {
        let p = Profile::build(SimTime::ZERO, &free(4), []);
        let mut p2 = p.clone();
        p2.reserve(
            &demand(4),
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
        );
        assert!(p2.fits(&demand(1), SimTime::ZERO, SimDuration::from_secs(10)));
        assert!(!p2.fits(&demand(1), SimTime::ZERO, SimDuration::from_secs(11)));
        assert!(p2.fits(
            &demand(1),
            SimTime::from_secs(20),
            SimDuration::from_secs(1_000)
        ));
    }

    #[test]
    fn past_releases_clamped_to_now() {
        let now = SimTime::from_secs(100);
        let p = Profile::build(now, &free(1), [(SimTime::from_secs(50), &free(9))]);
        assert_eq!(p.free_at(now), &[10]);
    }

    #[test]
    fn empty_demand_fits_anywhere() {
        let p = Profile::build(SimTime::ZERO, &free(0), []);
        assert_eq!(
            p.find_slot(
                &ResourceRow::zeros(1),
                SimDuration::from_hours(1),
                SimTime::from_secs(5)
            ),
            SimTime::from_secs(5)
        );
    }
}
