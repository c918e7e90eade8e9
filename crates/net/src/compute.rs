//! The coordinator's compute plane: a [`dordis_compute::Pool`] whose
//! completions are published back into the reactor through the
//! [`WakeQueue`](crate::reactor::WakeQueue).
//!
//! The coordinator submits per-chunk unmask/aggregate jobs (survivor
//! self-mask expansion, per-dropped-client pairwise re-expansion after
//! Shamir reconstruction, masked-sum accumulation — each sliced to its
//! chunk's element range via the seekable PRG) and keeps collecting
//! frames; when a worker finishes, the notifier wakes the reactor under
//! [`COMPUTE_TOKEN`], so a finished chunk arrives at the event loop
//! exactly like network readiness — in the same `epoll_pwait` sleep,
//! with no polling.

use std::sync::Arc;

use dordis_compute::{JobOutcome, Notifier, Pool, PoolStats};

use crate::reactor::{Token, WakeQueue};

/// Reactor token under which compute completions surface. Lives in the
/// reserved top-of-range namespace next to the stage timer; it never
/// maps to a client id, so every collection loop naturally ignores the
/// event and lets the idle hook drain the pool.
pub const COMPUTE_TOKEN: Token = Token(u64::MAX - 3);

/// One pooled unmask job's result: the chunk's aggregate in `Z_{2^b}`.
pub type ChunkSum = Vec<u64>;

/// The worker pool plus its reactor wiring. Owned by the
/// [`Session`](crate::session::Session), so workers stay warm across
/// rounds.
pub struct ComputePlane {
    pool: Pool<ChunkSum>,
    workers: usize,
}

impl ComputePlane {
    /// Spawns `workers` threads; every completion pokes the reactor
    /// behind `waker` under [`COMPUTE_TOKEN`].
    #[must_use]
    pub fn new(workers: usize, waker: Arc<WakeQueue>) -> ComputePlane {
        let workers = workers.max(1);
        let notifier: Notifier = Arc::new(move || waker.wake(COMPUTE_TOKEN));
        ComputePlane {
            pool: Pool::new(workers, Some(notifier)),
            workers,
        }
    }

    /// Worker thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queues one chunk's unmask job.
    pub fn submit(&mut self, chunk: usize, job: impl FnOnce() -> ChunkSum + Send + 'static) {
        self.pool.submit(chunk as u64, job);
    }

    /// Non-blocking drain of one completion.
    pub fn try_complete(&mut self) -> Option<(usize, JobOutcome<ChunkSum>)> {
        self.pool
            .try_complete()
            .map(|(id, outcome)| (id as usize, outcome))
    }

    /// Blocking drain of one completion; `None` when nothing is in
    /// flight.
    pub fn wait_complete(&mut self) -> Option<(usize, JobOutcome<ChunkSum>)> {
        self.pool
            .wait_complete()
            .map(|(id, outcome)| (id as usize, outcome))
    }

    /// Jobs submitted but not yet drained.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.pool.in_flight()
    }

    /// Discards every in-flight job's result, blocking on jobs still
    /// running. An aborted round can leave its submitted-but-undrained
    /// chunk sums queued in the session-warm pool; the next round's
    /// chunk indices would collide with them and
    /// `install_chunk_sum` would accept the stale data — so the
    /// coordinator calls this before submitting a new round's jobs.
    pub fn discard_stale(&mut self) {
        while self.pool.wait_complete().is_some() {}
    }

    /// Lifetime pool counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Publishes the pool's counters into the metrics registry. Called
    /// by the coordinator at each round's unmask barrier — gauges want
    /// a point-in-time publisher, and the barrier is when the numbers
    /// mean something (every job of the round accounted for). No-op
    /// with disabled telemetry.
    pub fn sync_metrics(&self, telemetry: &dordis_telemetry::Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        let stats = self.stats();
        telemetry
            .gauge("dordis_compute_queue_depth", &[])
            .set(self.pool.queue_depth());
        telemetry
            .gauge("dordis_compute_queue_depth_peak", &[])
            .set(stats.queue_peak);
        telemetry
            .gauge("dordis_compute_jobs_submitted", &[])
            .set(stats.submitted);
        telemetry
            .gauge("dordis_compute_jobs_drained", &[])
            .set(stats.drained);
        telemetry
            .gauge("dordis_compute_jobs_panicked", &[])
            .set(stats.panics);
        for (i, busy) in stats.worker_busy_ns.iter().enumerate() {
            let worker = i.to_string();
            telemetry
                .gauge("dordis_compute_worker_busy_ns", &[("worker", &worker)])
                .set(*busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Reactor;
    use std::time::Duration;

    #[test]
    fn completion_wakes_the_reactor_under_compute_token() {
        let mut reactor = Reactor::new(Duration::from_millis(5)).unwrap();
        let mut plane = ComputePlane::new(2, reactor.waker());
        plane.submit(3, || vec![1, 2, 3]);

        // The completion must surface as a readable COMPUTE_TOKEN event
        // without any timer or fd activity.
        let (mut events, mut expired) = (Vec::new(), Vec::new());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            reactor
                .poll(&mut events, &mut expired, Duration::from_millis(100))
                .unwrap();
            if events
                .iter()
                .any(|e| e.token == COMPUTE_TOKEN && e.readable)
            {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no compute wake");
        }
        let (chunk, outcome) = plane.wait_complete().expect("one job");
        assert_eq!(chunk, 3);
        assert!(matches!(outcome, JobOutcome::Done(v) if v == vec![1, 2, 3]));
        assert_eq!(plane.in_flight(), 0);
    }

    #[test]
    fn discard_stale_flushes_an_aborted_rounds_leftovers() {
        // Round N submits chunks 0 and 1, drains only chunk-0-or-1 once
        // (the abort fires mid-barrier), and the round ends. The next
        // round's chunk 0 must never see round N's queued sum.
        let reactor = Reactor::new(Duration::from_millis(5)).unwrap();
        let mut plane = ComputePlane::new(1, reactor.waker());
        plane.submit(0, || vec![111]);
        plane.submit(1, || vec![222]);
        let _ = plane.wait_complete().expect("one completion");
        assert!(plane.in_flight() > 0, "a leftover is still queued");

        plane.discard_stale();
        assert_eq!(plane.in_flight(), 0);

        // The new round's job is the only thing that comes out.
        plane.submit(0, || vec![333]);
        let (chunk, outcome) = plane.wait_complete().expect("new job");
        assert_eq!(chunk, 0);
        assert!(matches!(outcome, JobOutcome::Done(v) if v == vec![333]));
        assert!(plane.wait_complete().is_none());
    }
}
