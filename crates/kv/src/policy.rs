//! The serving policy shared by the live sharded store and the DES.
//!
//! [`crate::shard::ShardedKv`] (real segments on the simulated kernel)
//! and the RedisJMP serving engine ([`crate::overload`]) make the same
//! three decisions about every request: refuse a write to a degraded
//! shard, shed an arrival that finds its shard's queue at the bound,
//! and drop work whose deadline has passed. `ServePolicy` is the one
//! copy of those rules; [`RejectReason`] names their outcomes and
//! carries the `ReqShed.arg1` code both paths trace.

/// Why a request was refused without being served.
///
/// Typed so callers can react differently: `Shed` is transient (retry
/// with backoff), `ShardUnavailable` is a mode (fail writes fast, keep
/// reading), `DeadlineExceeded` is final (the client already gave up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The shard's admission queue is at its bound; retry after backoff.
    Shed,
    /// The request's deadline passed before it could be dispatched.
    DeadlineExceeded,
    /// The shard is degraded to read-only (memory pressure); writes are
    /// refused until pressure clears.
    ShardUnavailable,
}

impl RejectReason {
    /// Stable lowercase name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Shed => "shed",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
            RejectReason::ShardUnavailable => "shard_unavailable",
        }
    }

    /// The code carried in `ReqShed.arg1` (decoded by
    /// `sjmp_trace::assemble_requests` into a `ReqOutcome`).
    pub fn shed_code(self) -> u64 {
        match self {
            RejectReason::Shed => 0,
            RejectReason::DeadlineExceeded => 1,
            RejectReason::ShardUnavailable => 2,
        }
    }
}

/// The admission and deadline rules of RedisJMP serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ServePolicy {
    queue_cap: usize,
}

impl ServePolicy {
    /// Default per-shard admission bound. Deliberately tight: handoff
    /// cost grows with queue depth, so a deep queue slows the lock
    /// itself, and shedding at 8 keeps the service rate near its peak.
    pub(crate) const DEFAULT_QUEUE_CAP: usize = 8;

    /// A policy that sheds arrivals finding `queue_cap` waiters queued.
    pub(crate) fn new(queue_cap: usize) -> Self {
        ServePolicy { queue_cap }
    }

    /// The admission decision for one request. A write to a `degraded`
    /// shard is refused first; otherwise an arrival finding
    /// `queue_depth` waiters at or over the bound is shed.
    ///
    /// # Errors
    ///
    /// [`RejectReason::ShardUnavailable`] or [`RejectReason::Shed`].
    pub(crate) fn admit(
        self,
        write: bool,
        degraded: bool,
        queue_depth: usize,
    ) -> Result<(), RejectReason> {
        if write && degraded {
            return Err(RejectReason::ShardUnavailable);
        }
        if queue_depth >= self.queue_cap {
            return Err(RejectReason::Shed);
        }
        Ok(())
    }

    /// Whether work at cycle `now` is past its absolute `deadline`
    /// ([`None`] = no deadline).
    pub(crate) fn missed(now: u64, deadline: Option<u64>) -> bool {
        deadline.is_some_and(|d| now > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_overload, JmpClient, OverloadConfig, ShardError, ShardedKv};
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::{Creds, Kernel, Pid};
    use sjmp_sim::Arrival;
    use sjmp_trace::{assemble_requests, ReqOutcome, Tracer};
    use spacejmp_core::{RetryPolicy, SjError, SpaceJmp};

    const REASONS: [RejectReason; 3] = [
        RejectReason::Shed,
        RejectReason::DeadlineExceeded,
        RejectReason::ShardUnavailable,
    ];

    fn outcome(reason: RejectReason) -> ReqOutcome {
        match reason {
            RejectReason::Shed => ReqOutcome::Shed,
            RejectReason::DeadlineExceeded => ReqOutcome::DeadlineExceeded,
            RejectReason::ShardUnavailable => ReqOutcome::ShardUnavailable,
        }
    }

    fn spawn(sj: &mut SpaceJmp, name: &str) -> Pid {
        let pid = sj.kernel_mut().spawn(name, Creds::new(100, 100)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        pid
    }

    #[test]
    fn live_rejections_reassemble_to_their_outcomes() {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let pid = spawn(&mut sj, "victim");
        let mut kv = ShardedKv::join(&mut sj, pid, "live", 0, 1).unwrap();
        kv.set(&mut sj, b"k", b"v").unwrap();
        // One client holds the store's write lock; enough others block
        // behind it to fill the admission queue.
        let others: Vec<JmpClient> = (0..=ServePolicy::DEFAULT_QUEUE_CAP)
            .map(|i| {
                let p = spawn(&mut sj, &format!("other{i}"));
                JmpClient::join(&mut sj, p, "live-s0", 1 + i).unwrap()
            })
            .collect();
        sj.vas_switch(others[0].pid(), others[0].write_handle())
            .unwrap();
        let give_up = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        for c in &others[1..] {
            assert_eq!(
                sj.vas_switch_retry(c.pid(), c.read_handle(), &give_up),
                Err(SjError::WouldBlock)
            );
        }
        sj.set_tracer(Tracer::new(1 << 16));

        for reason in REASONS {
            let got = match reason {
                RejectReason::Shed => kv.get(&mut sj, b"k").map(|_| ()),
                RejectReason::DeadlineExceeded => kv.get_by(&mut sj, b"k", Some(0)).map(|_| ()),
                RejectReason::ShardUnavailable => {
                    let free = sj.kernel_mut().sys_phys_stats().free_frames;
                    sj.kernel_mut().set_low_watermark(Some(free + 8));
                    kv.set(&mut sj, b"k", b"w")
                }
            };
            assert_eq!(got, Err(ShardError::Rejected(reason)));
        }
        let outcomes: Vec<ReqOutcome> = assemble_requests(&sj.tracer().events())
            .iter()
            .map(|s| s.outcome)
            .collect();
        assert_eq!(outcomes, REASONS.map(outcome).to_vec());
    }

    #[test]
    fn des_rejections_reassemble_to_their_outcomes() {
        let tracer = Tracer::new(1 << 16);
        let res = run_overload(&OverloadConfig {
            clients: 100,
            requests: 600,
            set_pct: 50,
            arrival: Arrival::Poisson { mean_gap: 200.0 },
            deadline: 20_000,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            degrade_at: Some(0),
            degraded_shards: 2,
            tracer: tracer.clone(),
            ..OverloadConfig::default()
        })
        .unwrap();
        let spans = assemble_requests(&tracer.events());
        assert_eq!(spans.len() as u64, res.offered);
        let count = |o: ReqOutcome| spans.iter().filter(|s| s.outcome == o).count() as u64;
        for reason in REASONS {
            let expected = match reason {
                RejectReason::Shed => res.shed,
                RejectReason::DeadlineExceeded => {
                    res.deadline_rejects - count(ReqOutcome::Completed(false))
                }
                RejectReason::ShardUnavailable => res.degraded_rejects,
            };
            assert!(expected > 0, "{reason:?} never raised: {res:?}");
            assert_eq!(count(outcome(reason)), expected, "{reason:?}");
        }
    }
}
