//! Exact layer counters of a live simulated kernel, read through the
//! non-perturbing snapshot APIs (`Kernel::stats_snapshot`,
//! `SpaceJmp::stats`). Shared by the workloads that drive a kernel:
//! gups, redisjmp and samtools.

use spacejmp_core::SpaceJmp;

use crate::spans::ratio;
use crate::{Metrics, SimRep};

pub const KERNEL_ENTRIES: usize = 0;
pub const TLB_HITS: usize = 1;
pub const TLB_MISSES: usize = 2;
pub const TLB_FLUSHES: usize = 3;
pub const WALKS: usize = 4;
pub const TRANSLATIONS: usize = 5;
pub const SWITCHES: usize = 6;
pub const LOCKS: usize = 7;
pub const CONTENTIONS: usize = 8;
pub const RETRIED: usize = 9;
/// Shared counters; a workload appends its own from this index on.
pub const COUNT: usize = 10;

/// Simulated cycles (summed over cores) and the shared counters.
pub struct Snapshot {
    cycles: u64,
    counters: [u64; COUNT],
}

impl Snapshot {
    pub fn take(sj: &SpaceJmp) -> Self {
        let k = sj.kernel().stats_snapshot();
        let s = sj.stats();
        Snapshot {
            cycles: sj.kernel().total_cycles(),
            counters: [
                k.kernel.kernel_entries,
                k.tlb.hits,
                k.tlb.misses,
                k.tlb.flushes,
                k.mmu.walks,
                k.mmu.translations,
                s.switches,
                s.lock_acquisitions,
                s.lock_contentions,
                s.retried_switches,
            ],
        }
    }

    /// Cycles and counter deltas since `before`.
    pub fn since(&self, before: &Snapshot) -> (u64, Vec<u64>) {
        let deltas = self
            .counters
            .iter()
            .zip(&before.counters)
            .map(|(a, b)| a - b)
            .collect();
        (self.cycles - before.cycles, deltas)
    }
}

/// The mem, os and core metrics every live-kernel workload reports.
pub fn layer_metrics(sj: &SpaceJmp, sim: &SimRep, out: &mut Metrics) {
    let c = |i: usize| sim.counters[i];
    let ops = sim.ops;
    out.insert(
        "mem.tlb_miss_ratio",
        ratio(c(TLB_MISSES), c(TLB_HITS) + c(TLB_MISSES)),
    );
    out.insert("mem.walks_per_op", ratio(c(WALKS), ops));
    out.insert("mem.tlb_flushes_per_op", ratio(c(TLB_FLUSHES), ops));
    out.insert("mem.translations_per_op", ratio(c(TRANSLATIONS), ops));
    out.insert(
        "mem.frames_allocated",
        sj.kernel().stats_snapshot().phys.allocated_frames as f64,
    );
    out.insert("os.kernel_entries_per_op", ratio(c(KERNEL_ENTRIES), ops));
    out.insert("core.switches_per_op", ratio(c(SWITCHES), ops));
    out.insert("core.lock_acquisitions_per_op", ratio(c(LOCKS), ops));
    out.insert("core.lock_contentions_per_op", ratio(c(CONTENTIONS), ops));
    out.insert("core.retried_switch_ratio", ratio(c(RETRIED), c(SWITCHES)));
}
