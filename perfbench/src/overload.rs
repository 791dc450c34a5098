//! `overload`: open-loop Poisson arrivals against the 4-shard RedisJMP
//! DES on M1: 2,000 clients, 10% SETs, offered at twice the estimated
//! saturation rate. An op is one offered request. The DES histogram's
//! log2 buckets are too coarse for a latency metric, so exact latencies
//! come from a request-traced replay of the same seed, which must match
//! the untraced run bit for bit.

use sjmp_kv::{measure_costs_on, run_overload_at, saturation_rps, OverloadConfig, OverloadResult};
use sjmp_mem::cost::{MachineId, MachineProfile};
use sjmp_trace::{assemble_requests, ReqOutcome, ReqPhases, Tracer};

use crate::spans::{percentile, ratio, Call, Spans};
use crate::{Finish, Metrics, Rep, SimRep, Workload};

const MACHINE: MachineId = MachineId::M1;
const SHARDS: usize = 4;
const SET_PCT: u8 = 10;
const CLIENTS: usize = 2_000;
/// Offered requests per rep: sized so one rep takes well over 50 ms.
const REQUESTS: usize = 100_000;
/// Offered load of the workload, as a multiple of saturation.
const LOAD: f64 = 2.0;
/// The latency limit of `kv.serve.capacity_rps`.
const P99_LIMIT: u64 = 200_000;
const MAX_FAILED_RATIO: f64 = 0.01;
/// Ring capacity of a request-traced replay: every request's lifecycle
/// events plus the cost-measurement kernels' events must fit.
const TRACE_EVENTS: usize = 1 << 21;

pub struct Overload {
    cfg: OverloadConfig,
    saturation: f64,
}

/// Exact latencies of within-deadline completions, from a request-
/// traced replay that must reproduce `untraced` exactly.
fn traced_replay(
    cfg: &OverloadConfig,
    rps: f64,
    untraced: Option<&OverloadResult>,
) -> Result<(OverloadResult, Vec<u64>, ReqPhases), String> {
    let tracer = Tracer::new(TRACE_EVENTS);
    let traced = OverloadConfig {
        tracer: tracer.clone(),
        ..cfg.clone()
    };
    let res = run_overload_at(&traced, rps).map_err(|e| format!("overload replay: {e:?}"))?;
    if tracer.dropped() > 0 {
        return Err(format!("trace ring dropped {} events", tracer.dropped()));
    }
    if let Some(u) = untraced {
        if counters(u) != counters(&res) {
            return Err("request tracing changed the simulated run".into());
        }
    }
    let mut latencies = Vec::with_capacity(res.completed as usize);
    let mut phases = ReqPhases::default();
    for span in assemble_requests(&tracer.events()) {
        if span.outcome == ReqOutcome::Completed(true) {
            latencies.push(span.latency());
            phases.backoff += span.phases.backoff;
            phases.queue += span.phases.queue;
            phases.switch += span.phases.switch;
            phases.service += span.phases.service;
        }
    }
    latencies.sort_unstable();
    // The exact tail must agree with the histogram's bracket.
    let (lo, hi) = res.p99_bounds;
    let p99 = percentile(&latencies, 99.0);
    if latencies.len() as u64 != res.completed || !(lo..=hi).contains(&p99) {
        return Err("traced replay disagrees with the DES histogram".into());
    }
    Ok((res, latencies, phases))
}

// Indices into `counters`.
const OFFERED: usize = 0;
const COMPLETED: usize = 2;
const SHED: usize = 3;
const RETRIES: usize = 4;
const MAX_QUEUE: usize = 7;

/// The exact, comparable outcome of one run.
fn counters(r: &OverloadResult) -> Vec<u64> {
    let h = &r.latency;
    let mut v = vec![
        r.offered,
        r.admitted,
        r.completed,
        r.shed,
        r.retries,
        r.deadline_rejects,
        r.degraded_rejects,
        r.max_queue as u64,
        r.secs.to_bits(),
        h.count,
        h.sum,
        h.min,
        h.max,
    ];
    v.extend_from_slice(&h.buckets);
    v
}

/// Share of offered requests not completed within their deadline.
fn failed_ratio(r: &OverloadResult) -> f64 {
    1.0 - ratio(r.completed, r.offered)
}

impl Overload {
    fn rps(&self, load: f64) -> f64 {
        load * self.saturation
    }

    /// Whether offered `rps` meets the latency limit without refusing
    /// more than the allowed share.
    fn meets_limit(&self, rps: f64) -> Result<bool, String> {
        let (res, lat, _) = traced_replay(&self.cfg, rps, None)?;
        Ok(failed_ratio(&res) <= MAX_FAILED_RATIO && percentile(&lat, 99.0) <= P99_LIMIT)
    }

    /// The highest offered rate meeting the limit, by bisection over
    /// [0.25, 2] × saturation to 1% of saturation.
    fn capacity_rps(&self) -> Result<f64, String> {
        let (mut lo, mut hi) = (0.25, 2.0);
        if !self.meets_limit(self.rps(lo))? {
            return Ok(0.0);
        }
        if self.meets_limit(self.rps(hi))? {
            return Ok(self.rps(hi));
        }
        while hi - lo > 0.01 {
            let mid = (lo + hi) / 2.0;
            if self.meets_limit(self.rps(mid))? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(self.rps(lo))
    }
}

impl Workload for Overload {
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let costs = spans
            .time(Call::MeasureCosts, || {
                measure_costs_on(MACHINE, false, Tracer::disabled())
            })
            .map_err(|e| format!("measure_costs: {e:?}"))?;
        Ok(Overload {
            cfg: OverloadConfig {
                machine: MACHINE,
                shards: SHARDS,
                clients: CLIENTS,
                requests: REQUESTS,
                set_pct: SET_PCT,
                seed,
                ..OverloadConfig::default()
            },
            saturation: saturation_rps(&costs, MACHINE, SET_PCT, SHARDS),
        })
    }

    fn rep(&mut self, _index: u64, spans: &mut Spans) -> Result<Rep, String> {
        let rps = self.rps(LOAD);
        let res = spans
            .time(Call::Serve, || run_overload_at(&self.cfg, rps))
            .map_err(|e| format!("overload: {e:?}"))?;
        let failed = if res.accounted() {
            0
        } else {
            println!("# FAIL: overload accounting leak");
            res.offered
        };
        Ok(Rep {
            sim: SimRep {
                reps: 1,
                ops: res.offered,
                cycles: MachineProfile::of(MACHINE).secs_to_cycles(res.secs),
                counters: counters(&res),
                latencies: Vec::new(),
            },
            failed,
        })
    }

    fn finish(&mut self) -> Result<Finish, String> {
        let rps = self.rps(LOAD);
        let untraced = run_overload_at(&self.cfg, rps).map_err(|e| format!("overload: {e:?}"))?;
        let (_, latencies, _) = traced_replay(&self.cfg, rps, Some(&untraced))?;
        Ok(Finish {
            failed_checks: 0,
            latencies,
        })
    }

    fn served_ratio(&self, sim: &SimRep) -> f64 {
        ratio(sim.counters[COMPLETED], sim.counters[OFFERED])
    }

    fn layer_metrics(
        &mut self,
        sim: &SimRep,
        spans: &Spans,
        out: &mut Metrics,
    ) -> Result<(), String> {
        let c = |i: usize| sim.counters[i];
        let (offered, completed, shed, retries) = (c(OFFERED), c(COMPLETED), c(SHED), c(RETRIES));
        out.insert(
            "kv.serve.host_ns_per_req",
            spans.median_ns_per(Call::Serve, offered),
        );
        out.insert(
            "kv.serve.allocs_per_req",
            spans.allocs_per_call(Call::Serve) / offered as f64,
        );
        out.insert("kv.serve.shed_per_req", ratio(shed, offered));
        out.insert("kv.serve.retries_per_req", ratio(retries, offered));
        out.insert("kv.serve.useful_ratio", ratio(completed, offered + retries));
        out.insert("kv.serve.max_queue", c(MAX_QUEUE) as f64);
        let (_, _, p) = traced_replay(&self.cfg, self.rps(LOAD), None)?;
        let total = p.total();
        out.insert("kv.serve.backoff_share", ratio(p.backoff, total));
        out.insert("kv.serve.queue_share", ratio(p.queue, total));
        out.insert("kv.serve.switch_share", ratio(p.switch, total));
        out.insert("kv.serve.service_share", ratio(p.service, total));
        let (_, x050, _) = traced_replay(&self.cfg, self.rps(0.5), None)?;
        out.insert("kv.serve.x050.p99_cycles", percentile(&x050, 99.0) as f64);
        let (res, x100, _) = traced_replay(&self.cfg, self.rps(1.0), None)?;
        out.insert("kv.serve.x100.p99_cycles", percentile(&x100, 99.0) as f64);
        out.insert("kv.serve.x100.failed_ratio", failed_ratio(&res));
        out.insert("kv.serve.capacity_rps", self.capacity_rps()?);
        out.insert(
            "kv.measure_costs.host_s",
            spans.median_ns(Call::MeasureCosts) / 1e9,
        );
        Ok(())
    }
}
