//! The RedisJMP serving engine: requests visit the sharded store under
//! FIFO segment locks, with admission control, deadlines, and retries.
//!
//! One deterministic DES replays measured per-op costs
//! ([`crate::bench::measure_costs_on`]) for every RedisJMP experiment.
//! It is parametrised by its population:
//!
//! * **Closed loop** ([`sjmp_sim::ClosedLoop`]) — Figure 10's
//!   [`crate::bench::run_jmp`]: each client waits for its reply, on one
//!   shard with no admission bound and no deadline, so offered load can
//!   never exceed service capacity.
//! * **Open loop** ([`sjmp_sim::OpenLoop`]) — [`run_overload`]: arrivals
//!   keep coming at the offered rate however the store is doing.
//!   Without overload control, every arrival past saturation joins a
//!   queue; queues grow without bound, latency diverges, and *goodput
//!   falls* because cores burn cycles on requests whose clients already
//!   gave up.
//!
//! The serving discipline, with every decision taken by `ServePolicy`
//! (the rules the live [`crate::shard::ShardedKv`] applies too):
//!
//! * **Sharding** — `S` store segments with independent FIFO segment
//!   locks; requests route by consistent hash ([`crate::shard::ShardRouter`]).
//! * **Admission** — an arrival finding its shard's queue at
//!   `queue_cap` is **shed** immediately ([`RejectReason::Shed`]):
//!   rejecting is cheap, queueing is not. Shed clients retry after
//!   [`RetryPolicy::backoff`] plus deterministic jitter, up to
//!   `retry.max_retries` attempts.
//! * **Deadlines** — checked only at dispatch: a request that reaches
//!   the head of the line after its deadline is dropped without burning
//!   a core ([`RejectReason::DeadlineExceeded`]); a completion past its
//!   deadline counts as wasted work, not goodput.
//! * **Degraded mode** — from `degrade_at` on, `degraded_shards`
//!   shards flip read-only and refuse SETs with
//!   [`RejectReason::ShardUnavailable`], replaying in the DES the
//!   [`sjmp_os::PressureLevel`] signal the live path reads from the
//!   kernel.
//!
//! Everything is seeded: two runs with one config are bit-identical,
//! which CI enforces by running the sweep twice and byte-comparing.

use sjmp_mem::cost::{CostModel, MachineId, MachineProfile};
use sjmp_sim::{Arrival, ClosedLoop, Cores, LockMode, OpenLoop, Sim, SimRng, SimRwLock};
use sjmp_trace::{
    assemble_requests, slowest_completed, Event, EventKind, Histogram, Phase, RequestSpan, Tracer,
};
use spacejmp_core::{RetryPolicy, SjResult};

use crate::bench::{
    measure_costs_on, preload_key, OpCosts, KEYSPACE, READER_BOUNCE, WAITER_BOUNCE,
};
use crate::policy::{RejectReason, ServePolicy};
use crate::shard::ShardRouter;

/// Configuration of one open-loop overload run.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Machine profile whose cores and cost model the DES replays.
    pub machine: MachineId,
    /// Store shards (independent segments + locks), 1..=8.
    pub shards: usize,
    /// Client population the arrivals multiplex over (tens of
    /// thousands: ids, not simulated processes).
    pub clients: usize,
    /// Total arrivals to generate.
    pub requests: usize,
    /// SET percentage (0 = pure GET).
    pub set_pct: u8,
    /// The arrival process (offered load lives in its mean gap).
    pub arrival: Arrival,
    /// Per-shard admission bound: arrivals finding this many waiters
    /// queued on the shard lock are shed.
    pub queue_cap: usize,
    /// Relative deadline in cycles from arrival (`u64::MAX` = none);
    /// admitted work completing later is waste, not goodput.
    pub deadline: u64,
    /// Client retry-after-shed schedule (PR 1 backoff).
    pub retry: RetryPolicy,
    /// Cycle time at which memory pressure hits (None = never).
    pub degrade_at: Option<u64>,
    /// Shards that flip read-only at `degrade_at`.
    pub degraded_shards: usize,
    /// Enable TLB tagging for the cost measurement.
    pub tagging: bool,
    /// RNG seed (op mix, routing, jitter).
    pub seed: u64,
    /// Extra cycles per queued waiter on contended-lock handoff.
    pub waiter_bounce: u64,
    /// Extra cycles per concurrent reader on shared acquisition.
    pub reader_bounce: u64,
    /// Tracer for the cost-measurement kernels (the DES replay itself
    /// never touches a kernel). When enabled, the DES also mirrors its
    /// `Req*` lifecycle instants here for Chrome export.
    pub tracer: Tracer,
    /// Record per-request causal spans (`Req*` events) and reassemble
    /// tail exemplars. Pure observation: simulated cycles are
    /// bit-identical with this on or off.
    pub trace_requests: bool,
    /// How many slowest-completion span trees to keep as tail
    /// exemplars (only with `trace_requests`).
    pub exemplars: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            machine: MachineId::M1,
            shards: 4,
            clients: 20_000,
            requests: 20_000,
            set_pct: 10,
            arrival: Arrival::Poisson { mean_gap: 2_000.0 },
            queue_cap: ServePolicy::DEFAULT_QUEUE_CAP,
            deadline: 2_000_000,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff_cycles: 4096,
                max_backoff_shift: 4,
            },
            degrade_at: None,
            degraded_shards: 0,
            tagging: false,
            seed: 7,
            waiter_bounce: WAITER_BOUNCE,
            reader_bounce: READER_BOUNCE,
            tracer: Tracer::disabled(),
            trace_requests: false,
            exemplars: 3,
        }
    }
}

/// Outcome counters and latency tail of one overload run.
#[derive(Debug, Clone, Default)]
pub struct OverloadResult {
    /// Arrivals generated (offered requests, before retries).
    pub offered: u64,
    /// Requests that passed admission and took the shard lock path.
    pub admitted: u64,
    /// Requests completed within their deadline (the goodput numerator).
    pub completed: u64,
    /// Requests finally shed (admission queue full, retries exhausted).
    pub shed: u64,
    /// Retry attempts scheduled after sheds.
    pub retries: u64,
    /// Requests dropped at dispatch or completed past deadline.
    pub deadline_rejects: u64,
    /// SETs refused by degraded (read-only) shards.
    pub degraded_rejects: u64,
    /// Simulated wall time of the whole run.
    pub secs: f64,
    /// Offered arrival rate over the arrival window.
    pub offered_rps: f64,
    /// Within-deadline completions per second (the headline number).
    pub goodput_rps: f64,
    /// Fraction of offered requests finally shed.
    pub shed_rate: f64,
    /// Latency percentiles of within-deadline completions, in cycles
    /// (conservative upper bounds; see [`Histogram::percentile`]).
    pub p50: u64,
    /// 99th percentile latency (cycles).
    pub p99: u64,
    /// 99.9th percentile latency (cycles).
    pub p999: u64,
    /// Exact bracket around the true p50 (see
    /// [`Histogram::percentile_bounds`]).
    pub p50_bounds: (u64, u64),
    /// Exact bracket around the true p99.
    pub p99_bounds: (u64, u64),
    /// Exact bracket around the true p99.9.
    pub p999_bounds: (u64, u64),
    /// Peak admission-queue depth over all shards.
    pub max_queue: usize,
    /// Latency histogram of within-deadline completions.
    pub latency: Histogram,
    /// Terminal sheds per client id (fairness accounting: with uniform
    /// arrivals no client should absorb a disproportionate share).
    pub client_sheds: Vec<u64>,
    /// The heaviest single client's terminal-shed count.
    pub max_client_sheds: u64,
    /// Span trees of the slowest within-deadline completions, with
    /// latency decomposed into backoff/queue/switch/service. Empty
    /// unless [`OverloadConfig::trace_requests`] is set.
    pub exemplars: Vec<RequestSpan>,
}

impl OverloadResult {
    /// Conservation check: every offered request is accounted exactly
    /// once as completed, shed, deadline-rejected, or degraded-rejected.
    pub fn accounted(&self) -> bool {
        self.completed + self.shed + self.deadline_rejects + self.degraded_rejects == self.offered
    }
}

/// Estimated saturation throughput (requests/sec) of the sharded store
/// on `machine`: the smaller of the core-pool bound (all cores busy on
/// the average request mix) and the write-serialization bound (each
/// shard's lock admits one SET at a time). The overload sweeps place
/// their offered-load points at fractions of this estimate.
pub fn saturation_rps(costs: &OpCosts, machine: MachineId, set_pct: u8, shards: usize) -> f64 {
    let profile = MachineProfile::of(machine);
    let secs_per_cycle = profile.cycles_to_secs(1);
    let set_frac = f64::from(set_pct) / 100.0;
    let avg = costs.jmp_set as f64 * set_frac + costs.jmp_get as f64 * (1.0 - set_frac);
    let core_bound = f64::from(profile.total_cores()) / (avg * secs_per_cycle);
    if set_frac == 0.0 {
        return core_bound;
    }
    // SETs serialize per shard: each shard completes one exclusive
    // holder every jmp_set cycles, and SETs are set_frac of traffic.
    let write_bound = shards as f64 / (costs.jmp_set as f64 * secs_per_cycle) / set_frac;
    core_bound.min(write_bound)
}

/// Offered load (requests/sec) → mean interarrival gap in cycles.
pub fn rps_to_mean_gap(machine: MachineId, rps: f64) -> f64 {
    let secs_per_cycle = MachineProfile::of(machine).cycles_to_secs(1);
    assert!(rps > 0.0, "offered load must be positive");
    1.0 / (rps * secs_per_cycle)
}

/// Runs one open-loop overload experiment.
///
/// # Errors
///
/// Propagates cost-measurement failures.
///
/// # Panics
///
/// Panics on a zero-shard or zero-request config.
pub fn run_overload(cfg: &OverloadConfig) -> SjResult<OverloadResult> {
    assert!(cfg.shards > 0, "need at least one shard");
    assert!(cfg.requests > 0, "need at least one request");
    let costs = measure_costs_on(cfg.machine, cfg.tagging, cfg.tracer.clone())?;
    let arrivals = OpenLoop::new(cfg.arrival, cfg.clients, cfg.requests, cfg.seed);
    Ok(serve(cfg, &costs, Population::Open(arrivals)).0)
}

/// Who issues the requests the serving engine replays.
pub(crate) enum Population {
    /// Fixed clients, each issuing its next request when the last one
    /// ends (Figure 10). Draws only the op mix from the plain `seed`
    /// stream; every request goes to shard 0.
    Closed(ClosedLoop),
    /// Arrivals at the offered rate however the store is doing. Draws
    /// the op mix and a routed key per request from the `seed ^ "ovld"`
    /// stream.
    Open(OpenLoop),
}

#[derive(Clone, Copy)]
enum Ev {
    /// A client issues a new request.
    Arrive(usize),
    /// A shed request retries after backoff.
    Retry(usize),
    /// The shard lock is held; dispatch on a core.
    Begin(usize),
    /// The visit is done; release the lock and account.
    Release(usize),
}

/// Per-request state tracked across admission, retries, and dispatch.
struct Req {
    shard: usize,
    is_set: bool,
    arrived: u64,
    /// Absolute deadline ([`None`] when the budget overflows the clock).
    deadline: Option<u64>,
    attempts: u32,
    /// Issuing client id (for fairness accounting of sheds).
    client: usize,
    /// Core the visit was dispatched on (for `ReqComplete` attribution).
    core: u32,
}

impl Req {
    fn mode(&self) -> LockMode {
        if self.is_set {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    }
}

/// The RedisJMP serving engine: requests from a [`Population`] visit
/// sharded store segments under FIFO segment locks on a pooled core
/// set, replaying measured per-op costs, with [`ServePolicy`] deciding
/// admission and deadlines.
struct Engine<'a> {
    cfg: &'a OverloadConfig,
    costs: OpCosts,
    policy: ServePolicy,
    lock_handoff: u64,
    population: Population,
    rng: SimRng,
    router: ShardRouter,
    pool: Cores,
    locks: Vec<SimRwLock>,
    reqs: Vec<Req>,
    res: OverloadResult,
    /// Span buffer for request tracing; the sim never reads it back, so
    /// the simulated schedule is bit-identical whether it exists or not.
    spans: Option<Vec<Event>>,
    last_arrival: u64,
    end_time: u64,
}

impl Engine<'_> {
    /// Emits one request-lifecycle instant into the span buffer (when
    /// request tracing is on) and mirrors it to the run's tracer (when
    /// enabled) so Chrome exports carry the same stream. Pure
    /// observation: touches no clock, core pool, or RNG.
    fn emit(&mut self, ts: u64, core: u32, kind: EventKind, arg0: usize, arg1: u64) {
        let arg0 = arg0 as u64;
        if let Some(v) = &mut self.spans {
            v.push(Event {
                ts,
                core,
                phase: Phase::Instant,
                kind,
                arg0,
                arg1,
            });
        }
        self.cfg.tracer.instant(ts, core, kind, arg0, arg1);
    }

    fn handle(&mut self, sim: &mut Sim<Ev>, t: u64, ev: Ev) {
        match ev {
            Ev::Arrive(client) => self.arrive(sim, t, client),
            Ev::Retry(r) => self.admit(sim, t, r),
            Ev::Begin(r) => self.begin(sim, t, r),
            Ev::Release(r) => self.complete(sim, t, r),
        }
    }

    /// Materializes a request and, in the open loop, pre-schedules the
    /// next arrival so arrivals never stall.
    fn arrive(&mut self, sim: &mut Sim<Ev>, t: u64, client: usize) {
        let r = self.reqs.len();
        let is_set = self.rng.gen_range(0..100) < u64::from(self.cfg.set_pct);
        let shard = match self.population {
            Population::Closed(_) => 0,
            Population::Open(_) => self.router.route(&preload_key(self.rng.index(KEYSPACE))),
        };
        self.reqs.push(Req {
            shard,
            is_set,
            arrived: t,
            deadline: t.checked_add(self.cfg.deadline),
            attempts: 0,
            client,
            core: 0,
        });
        self.res.offered += 1;
        self.emit(t, 0, EventKind::ReqArrive, r, client as u64);
        if let Population::Open(arrivals) = &mut self.population {
            if let Some((id, ta, c)) = arrivals.next_arrival_tagged() {
                debug_assert_eq!(id as usize, r + 1);
                self.last_arrival = ta;
                sim.schedule(ta, Ev::Arrive(c));
            }
        }
        self.admit(sim, t, r);
    }

    /// Admission, shared by fresh arrivals and retries: take the shard
    /// lock path, or retry a shed with backoff plus jitter while the
    /// budget lasts, or reject for good.
    fn admit(&mut self, sim: &mut Sim<Ev>, t: u64, r: usize) {
        let req = &self.reqs[r];
        let degraded = self
            .cfg
            .degrade_at
            .is_some_and(|at| t >= at && req.shard < self.cfg.degraded_shards);
        let depth = self.locks[req.shard].queue_len();
        match self.policy.admit(req.is_set, degraded, depth) {
            Ok(()) => {
                self.res.admitted += 1;
                let (shard, mode) = (req.shard, req.mode());
                self.emit(t, 0, EventKind::ReqAdmit, r, shard as u64);
                if self.locks[shard].acquire(r, mode) {
                    sim.schedule(t, Ev::Begin(r));
                }
                // else: parked in FIFO order; woken by a Release.
            }
            Err(RejectReason::Shed) if req.attempts < self.cfg.retry.max_retries => {
                // Shedding is cheap: no core, no lock traffic.
                let backoff = self.cfg.retry.backoff(req.attempts);
                let jitter = self.rng.gen_range(0..backoff.max(1));
                let req = &mut self.reqs[r];
                req.attempts += 1;
                let attempts = u64::from(req.attempts);
                self.res.retries += 1;
                self.emit(t, 0, EventKind::ReqRetry, r, attempts);
                sim.schedule(t + backoff + jitter, Ev::Retry(r));
            }
            Err(reason) => {
                self.reject(t, r, reason);
                self.next_turn(sim, t, r);
            }
        }
    }

    /// Dispatch once the lock is held: drop the request at the head of
    /// the line if its deadline passed, else run the visit on a core.
    fn begin(&mut self, sim: &mut Sim<Ev>, t: u64, r: usize) {
        let req = &self.reqs[r];
        if ServePolicy::missed(t, req.deadline) {
            // The client gave up while we queued; release without
            // burning a core.
            self.reject(t, r, RejectReason::DeadlineExceeded);
            self.release(sim, t, r);
            self.next_turn(sim, t, r);
            return;
        }
        let dur = self.visit_cycles(req);
        let (core, start, end) = self.pool.reserve_on(t, dur);
        self.reqs[r].core = core as u32;
        // The dispatch instant carries the VAS-switch share of the
        // visit in arg1, letting span reassembly split the service
        // phase from switch overhead.
        let switch = self.costs.jmp_switch.min(dur);
        self.emit(start, core as u32, EventKind::ReqDispatch, r, switch);
        sim.schedule(end, Ev::Release(r));
    }

    /// Cycles of the visit once the lock is granted: the measured op,
    /// plus cache-line bouncing per concurrent reader for a GET.
    fn visit_cycles(&self, req: &Req) -> u64 {
        if req.is_set {
            self.costs.jmp_set
        } else {
            let readers = self.locks[req.shard].readers();
            self.costs.jmp_get + readers.saturating_sub(1) as u64 * self.cfg.reader_bounce
        }
    }

    /// The visit is done: release the lock, then count the completion
    /// as goodput or, past its deadline, as wasted work.
    fn complete(&mut self, sim: &mut Sim<Ev>, t: u64, r: usize) {
        self.release(sim, t, r);
        let req = &self.reqs[r];
        let within = !ServePolicy::missed(t, req.deadline);
        if within {
            self.res.completed += 1;
            self.res.latency.record(t - req.arrived);
        } else {
            self.res.deadline_rejects += 1;
        }
        self.emit(t, req.core, EventKind::ReqComplete, r, u64::from(within));
        self.next_turn(sim, t, r);
    }

    /// Releases the shard lock `r` holds and hands it to the woken
    /// waiters after the handoff delay.
    fn release(&mut self, sim: &mut Sim<Ev>, t: u64, r: usize) {
        let req = &self.reqs[r];
        let lock = &mut self.locks[req.shard];
        let woken = lock.release(req.mode());
        let handoff = self.lock_handoff + lock.queue_len() as u64 * self.cfg.waiter_bounce;
        for w in woken {
            sim.schedule(t + handoff, Ev::Begin(w));
        }
        self.end_time = self.end_time.max(t);
    }

    /// Accounts a request refused without being served.
    fn reject(&mut self, t: u64, r: usize, reason: RejectReason) {
        match reason {
            RejectReason::Shed => {
                self.res.shed += 1;
                self.res.client_sheds[self.reqs[r].client] += 1;
            }
            RejectReason::DeadlineExceeded => self.res.deadline_rejects += 1,
            RejectReason::ShardUnavailable => self.res.degraded_rejects += 1,
        }
        self.emit(t, 0, EventKind::ReqShed, r, reason.shed_code());
    }

    /// In the closed loop, the client of finished request `r` issues
    /// its next request at once while it has any left.
    fn next_turn(&mut self, sim: &mut Sim<Ev>, t: u64, r: usize) {
        let client = self.reqs[r].client;
        if let Population::Closed(clients) = &mut self.population {
            if clients.complete(client, t) {
                sim.schedule(t, Ev::Arrive(client));
            }
        }
    }
}

/// Replays `population` through the serving engine. Returns the
/// outcome and the cycle time of the last completion or arrival.
pub(crate) fn serve(
    cfg: &OverloadConfig,
    costs: &OpCosts,
    population: Population,
) -> (OverloadResult, u64) {
    let profile = MachineProfile::of(cfg.machine);
    let seed = match population {
        Population::Closed(_) => cfg.seed,
        Population::Open(_) => cfg.seed ^ 0x6f76_6c64, // "ovld"
    };
    let mut engine = Engine {
        cfg,
        costs: *costs,
        policy: ServePolicy::new(cfg.queue_cap),
        lock_handoff: CostModel::default().lock_handoff,
        population,
        rng: SimRng::seed_from_u64(seed),
        router: ShardRouter::new(cfg.shards),
        pool: Cores::new(profile.total_cores() as usize),
        locks: (0..cfg.shards).map(|_| SimRwLock::new()).collect(),
        reqs: Vec::with_capacity(cfg.requests),
        res: OverloadResult {
            client_sheds: vec![0; cfg.clients],
            ..OverloadResult::default()
        },
        spans: cfg.trace_requests.then(Vec::new),
        last_arrival: 0,
        end_time: 0,
    };

    let mut sim: Sim<Ev> = Sim::new();
    match &mut engine.population {
        Population::Closed(clients) => {
            for c in 0..clients.clients() {
                sim.schedule(0, Ev::Arrive(c));
            }
        }
        // Pull-based arrival chain: exactly one pending arrival in the
        // queue at any moment; each Arrive schedules its successor.
        Population::Open(arrivals) => {
            if let Some((id, t, client)) = arrivals.next_arrival_tagged() {
                debug_assert_eq!(id, 0);
                engine.last_arrival = t;
                sim.schedule(t, Ev::Arrive(client));
            }
        }
    }
    sim.run(|sim, t, ev| engine.handle(sim, t, ev));

    let Engine {
        mut res,
        locks,
        spans,
        last_arrival,
        end_time,
        ..
    } = engine;
    let end_time = end_time.max(last_arrival);
    res.secs = profile.cycles_to_secs(end_time.max(1));
    let arrival_secs = profile.cycles_to_secs(last_arrival.max(1));
    res.offered_rps = res.offered as f64 / arrival_secs;
    res.goodput_rps = res.completed as f64 / res.secs;
    res.shed_rate = if res.offered == 0 {
        0.0
    } else {
        res.shed as f64 / res.offered as f64
    };
    res.p50 = res.latency.percentile(50.0);
    res.p99 = res.latency.percentile(99.0);
    res.p999 = res.latency.percentile(99.9);
    res.p50_bounds = res.latency.percentile_bounds(50.0);
    res.p99_bounds = res.latency.percentile_bounds(99.0);
    res.p999_bounds = res.latency.percentile_bounds(99.9);
    res.max_queue = locks.iter().map(|l| l.max_queue).max().unwrap_or(0);
    res.max_client_sheds = res.client_sheds.iter().copied().max().unwrap_or(0);
    if let Some(events) = &spans {
        let assembled = assemble_requests(events);
        res.exemplars = slowest_completed(&assembled, cfg.exemplars)
            .into_iter()
            .cloned()
            .collect();
    }
    debug_assert!(res.accounted(), "request accounting leak: {res:?}");
    (res, end_time)
}

/// Convenience: [`run_overload`] at a given offered load in
/// requests/sec, with the arrival shape taken from `cfg.arrival`
/// (its mean gap is replaced).
///
/// # Errors
///
/// As [`run_overload`].
pub fn run_overload_at(cfg: &OverloadConfig, rps: f64) -> SjResult<OverloadResult> {
    let mean_gap = rps_to_mean_gap(cfg.machine, rps);
    let arrival = match cfg.arrival {
        Arrival::Poisson { .. } => Arrival::Poisson { mean_gap },
        Arrival::Bursty {
            on_cycles,
            off_cycles,
            ..
        } => Arrival::Bursty {
            mean_gap,
            on_cycles,
            off_cycles,
        },
    };
    run_overload(&OverloadConfig {
        arrival,
        ..cfg.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(requests: usize) -> OverloadConfig {
        OverloadConfig {
            requests,
            clients: 1000,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn light_load_completes_nearly_everything() {
        let costs = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(2000), 0.3 * sat).unwrap();
        assert!(res.accounted(), "{res:?}");
        assert!(
            res.completed as f64 >= 0.95 * res.offered as f64,
            "light load should complete: {res:?}"
        );
        assert_eq!(res.shed, 0, "no shedding at 30% of saturation: {res:?}");
    }

    #[test]
    fn overload_sheds_instead_of_collapsing() {
        let costs = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let at_sat = run_overload_at(&small(4000), sat).unwrap();
        let over = run_overload_at(&small(4000), 2.0 * sat).unwrap();
        assert!(over.shed > 0, "2x saturation must shed: {over:?}");
        assert!(
            over.goodput_rps >= 0.9 * at_sat.goodput_rps,
            "goodput must stay flat past saturation: {} vs {}",
            over.goodput_rps,
            at_sat.goodput_rps
        );
    }

    #[test]
    fn admitted_latency_is_bounded_by_deadline() {
        let costs = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(4000), 1.5 * sat).unwrap();
        assert!(res.completed > 0);
        assert!(
            res.p999 <= res.latency.max.max(1) && res.latency.max <= 2_000_000,
            "completions past deadline must not count: {res:?}"
        );
    }

    #[test]
    fn degraded_shards_reject_sets_but_serve_gets() {
        let cfg = OverloadConfig {
            set_pct: 50,
            degrade_at: Some(0),
            degraded_shards: 4,
            ..small(2000)
        };
        let res = run_overload(&cfg).unwrap();
        assert!(res.degraded_rejects > 0, "{res:?}");
        assert!(res.completed > 0, "GETs still serve: {res:?}");
    }

    #[test]
    fn unbounded_deadline_never_rejects() {
        let res = run_overload(&OverloadConfig {
            deadline: u64::MAX,
            ..small(500)
        })
        .unwrap();
        assert_eq!(res.deadline_rejects, 0, "{res:?}");
        assert!(res.accounted(), "{res:?}");
    }

    #[test]
    fn bit_identical_reruns() {
        let cfg = OverloadConfig {
            arrival: Arrival::Bursty {
                mean_gap: 1500.0,
                on_cycles: 300_000,
                off_cycles: 900_000,
            },
            ..small(3000)
        };
        let a = run_overload(&cfg).unwrap();
        let b = run_overload(&cfg).unwrap();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.p999, b.p999);
    }

    #[test]
    fn reject_reasons_have_stable_names() {
        assert_eq!(RejectReason::Shed.name(), "shed");
        assert_eq!(RejectReason::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(RejectReason::ShardUnavailable.name(), "shard_unavailable");
    }

    #[test]
    fn request_tracing_does_not_perturb_the_schedule() {
        let costs = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let off = run_overload_at(&small(3000), 1.8 * sat).unwrap();
        let on = run_overload_at(
            &OverloadConfig {
                trace_requests: true,
                ..small(3000)
            },
            1.8 * sat,
        )
        .unwrap();
        assert_eq!(off.offered, on.offered);
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.shed, on.shed);
        assert_eq!(off.retries, on.retries);
        assert_eq!(off.deadline_rejects, on.deadline_rejects);
        assert_eq!(off.latency, on.latency);
        assert_eq!(off.p999, on.p999);
        assert!(off.exemplars.is_empty(), "no spans without tracing");
        assert!(!on.exemplars.is_empty(), "tracing captures tail exemplars");
    }

    #[test]
    fn exemplar_phases_partition_latency_exactly() {
        let costs = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(
            &OverloadConfig {
                trace_requests: true,
                exemplars: 5,
                ..small(3000)
            },
            2.0 * sat,
        )
        .unwrap();
        assert!(!res.exemplars.is_empty());
        // Exemplars are the slowest completions, slowest first.
        let mut last = u64::MAX;
        for ex in &res.exemplars {
            assert!(ex.latency() <= last);
            last = ex.latency();
            assert_eq!(
                ex.phases.total(),
                ex.latency(),
                "backoff+queue+switch+service must partition latency: {ex:?}"
            );
            assert!(ex.phases.switch > 0, "every visit pays the VAS switch");
            assert!(ex.phases.service > 0, "{ex:?}");
        }
        assert_eq!(res.exemplars[0].latency(), res.latency.max);
    }

    #[test]
    fn sheds_are_counted_per_client_and_fairly_spread() {
        let costs = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(6000), 3.0 * sat).unwrap();
        assert!(res.shed > 0, "3x saturation must shed: {res:?}");
        assert_eq!(
            res.client_sheds.iter().sum::<u64>(),
            res.shed,
            "per-client tallies must sum to the total"
        );
        // Uniform arrivals over 1000 clients: no single client may
        // absorb a disproportionate share of the sheds.
        let mean = res.shed as f64 / res.client_sheds.len() as f64;
        assert!(
            (res.max_client_sheds as f64) <= 8.0 * mean + 4.0,
            "one client absorbed {} of {} sheds (mean {mean:.2})",
            res.max_client_sheds,
            res.shed
        );
    }

    #[test]
    fn percentile_bounds_bracket_the_point_estimates() {
        let costs = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        let sat = saturation_rps(&costs, MachineId::M1, 10, 4);
        let res = run_overload_at(&small(2000), 0.8 * sat).unwrap();
        for (lo, hi) in [res.p50_bounds, res.p99_bounds, res.p999_bounds] {
            assert!(lo <= hi);
            assert!(hi <= res.latency.max);
        }
        assert_eq!(res.p99_bounds.1, res.p99, "upper bound is the estimate");
        assert_eq!(res.p999_bounds.1, res.p999);
    }
}
