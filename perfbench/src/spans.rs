//! Host-side spans around every call the benchmark makes into a layer.
//!
//! Disabled (the end-to-end runs), [`Spans::time`] is a single branch.
//! Enabled (the traced run), each call records its host nanoseconds and
//! the heap allocations made inside it. Spans stay in memory; the run
//! summarizes them as per-call medians and allocation means.

use std::time::Instant;

use crate::alloc_count::allocations;

/// One layer boundary the benchmark crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    LoadU64,
    StoreU64,
    VasSwitch,
    VasAttach,
    VasDetach,
    Spawn,
    Exit,
    KvGet,
    KvSet,
    Append,
    Flagstat,
    QnameSort,
    CoordinateSort,
    BuildIndex,
    Serve,
    MeasureCosts,
}

const CALLS: usize = Call::MeasureCosts as usize + 1;

/// Per-call samples kept for the median; beyond this only totals grow.
const MAX_SAMPLES: usize = 1 << 22;

#[derive(Debug, Default, Clone)]
struct CallStats {
    ns: Vec<u64>,
    calls: u64,
    allocs: u64,
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    stats: Vec<CallStats>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            stats: vec![CallStats::default(); CALLS],
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording it as one `call` when tracing is on.
    #[inline]
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let a0 = allocations();
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let allocs = allocations() - a0;
        let s = &mut self.stats[call as usize];
        if s.ns.len() < MAX_SAMPLES {
            s.ns.push(ns);
        }
        s.calls += 1;
        s.allocs += allocs;
        out
    }

    /// Median host nanoseconds of one `call` (0 if never made).
    pub fn median_ns(&self, call: Call) -> f64 {
        let ns: Vec<f64> = self.stats[call as usize]
            .ns
            .iter()
            .map(|&x| x as f64)
            .collect();
        median(&ns)
    }

    /// Heap allocations per `call` (0 if never made).
    pub fn allocs_per_call(&self, call: Call) -> f64 {
        let s = &self.stats[call as usize];
        ratio(s.allocs, s.calls)
    }

    /// Median host nanoseconds of one `call` divided by `per`, the work
    /// each call does (records, requests).
    pub fn median_ns_per(&self, call: Call, per: u64) -> f64 {
        self.median_ns(call) / per.max(1) as f64
    }
}

/// `num / den` as f64, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of float samples (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Lower quartile of float samples (nearest rank; 0 when empty). Host
/// throughput is reported as the lower quartile of its per-rep rates:
/// on a host whose speed flips between a steady contended plateau and
/// sporadic fast bursts, the lower quartile tracks the plateau, while
/// the median moves with the share of the run the bursts happened to
/// cover.
pub fn lower_quartile(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (0.25 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Nearest-rank percentile `p` (0..=100) of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
