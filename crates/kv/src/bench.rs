//! The Figure 10 benchmark entry points.
//!
//! The paper drives Redis and RedisJMP with `redis-benchmark`: up to 100
//! concurrent closed-loop clients on the twelve-core machine M1. Real
//! threads would measure the host, not the modeled machine, so the
//! multi-client runs use a deterministic **discrete-event simulation**
//! whose per-request costs are *measured* from the real simulated code
//! paths first:
//!
//! 1. [`measure_costs_on`] runs actual GET/SET requests through
//!    [`crate::jmp::JmpClient`] (switches, segment locks, scratch-heap
//!    parsing, segment-resident dictionary) and through
//!    [`crate::server::RedisServer`], recording cycles per operation.
//! 2. [`run_jmp`] replays those costs for N closed-loop clients through
//!    the one RedisJMP serving engine ([`crate::overload`]): M1's core
//!    pool and a FIFO reader/writer segment lock with handoff and
//!    cache-line-bounce penalties, on one shard with no admission bound
//!    and no deadline.
//! 3. [`run_classic`] replays them through the socket-served design: a
//!    single-threaded server loop per instance and the socket path's
//!    per-message kernel costs.

use sjmp_mem::cost::{CostModel, MachineId, MachineProfile};
use sjmp_mem::KernelFlavor;
use sjmp_os::{Creds, Kernel};
use sjmp_sim::{ClosedLoop, Cores, CycleClock, Sim, SimRng};
use sjmp_trace::Tracer;
use spacejmp_core::{SjResult, SpaceJmp};

use crate::jmp::JmpClient;
use crate::overload::{serve, OverloadConfig, Population};
use crate::resp::Command;
use crate::server::RedisServer;

/// Per-operation cycle costs measured from live simulated runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCosts {
    /// Full RedisJMP GET visit (two switches, shared lock, parse, dict).
    pub jmp_get: u64,
    /// Full RedisJMP SET visit (exclusive lock path).
    pub jmp_set: u64,
    /// The VAS-switch round trip (switch in + switch home) of one
    /// visit, measured with no command work between the switches. This
    /// is the `switch` component request-span decomposition reports;
    /// the rest of `jmp_get`/`jmp_set` is shard service.
    pub jmp_switch: u64,
    /// Server-side GET handling (parse + dict + encode, no socket).
    pub server_get: u64,
    /// Server-side SET handling.
    pub server_set: u64,
}

/// Benchmark configuration (defaults follow the paper: machine M1,
/// 4-byte payloads).
#[derive(Debug, Clone)]
pub struct KvBenchConfig {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Requests per client in the closed loop.
    pub requests_per_client: usize,
    /// SET percentage (0 = pure GET, 100 = pure SET).
    pub set_pct: u8,
    /// Enable TLB tagging (the `RedisJMP (Tags)` series).
    pub tagging: bool,
    /// RNG seed for op mixing.
    pub seed: u64,
    /// Extra cycles per queued waiter on contended-lock handoff. The
    /// default models the paper's simple lock; the paper notes "a more
    /// scalable lock design than our current implementation would yield
    /// further improvements" — lower this to ablate that claim.
    pub waiter_bounce: u64,
    /// Extra cycles per concurrent reader on shared acquisition.
    pub reader_bounce: u64,
    /// Event tracer installed on the cost-measurement kernels (the DES
    /// replay itself never touches a kernel). Disabled by default.
    pub tracer: Tracer,
}

impl Default for KvBenchConfig {
    fn default() -> Self {
        KvBenchConfig {
            clients: 1,
            requests_per_client: 200,
            set_pct: 0,
            tagging: false,
            seed: 7,
            waiter_bounce: WAITER_BOUNCE,
            reader_bounce: READER_BOUNCE,
            tracer: Tracer::disabled(),
        }
    }
}

/// A throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Requests completed.
    pub requests: u64,
    /// Simulated cycles of the whole run (the DES end time).
    pub cycles: u64,
    /// Simulated wall time.
    pub secs: f64,
    /// Requests per second (the Figure 10 y-axis).
    pub rps: f64,
}

fn throughput(profile: &MachineProfile, requests: u64, cycles: u64) -> Throughput {
    let secs = profile.cycles_to_secs(cycles.max(1));
    Throughput {
        requests,
        cycles: cycles.max(1),
        secs,
        rps: requests as f64 / secs,
    }
}

/// Keys preloaded before measuring; the serving engine draws the keys
/// it routes from the same space.
pub(crate) const KEYSPACE: usize = 256;
/// Payload bytes (the paper uses 4-byte payloads).
const PAYLOAD: usize = 4;

pub(crate) fn preload_key(i: usize) -> Vec<u8> {
    format!("key:{i:06}").into_bytes()
}

/// Mean cycles on `clock` of 64 runs of `op`, the i-th over preloaded
/// key `i % KEYSPACE`.
fn per_op(clock: &CycleClock, mut op: impl FnMut(usize) -> SjResult<()>) -> SjResult<u64> {
    const REPS: u64 = 64;
    let t0 = clock.now();
    for i in 0..REPS {
        op(i as usize % KEYSPACE)?;
    }
    Ok(clock.since(t0) / REPS)
}

/// Measures per-op costs by running real operations through the
/// simulated stack of `machine`, with `tracer` installed on both
/// measurement kernels so the RedisJMP visit (switches, locks,
/// dictionary walks) shows up in the event stream. The overload sweeps
/// replay per-op costs for M1/M2/M3; Figure 10 uses M1.
///
/// # Errors
///
/// Propagates setup failures.
pub fn measure_costs_on(machine: MachineId, tagging: bool, tracer: Tracer) -> SjResult<OpCosts> {
    // RedisJMP path.
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, machine));
    sj.set_tracer(tracer.clone());
    if tagging {
        sj.kernel_mut().set_tagging(true);
    }
    let pid = sj
        .kernel_mut()
        .spawn("bench-client", Creds::new(100, 100))?;
    sj.kernel_mut().activate(pid)?;
    let mut client = JmpClient::join_with_tags(&mut sj, pid, "measure", 0, tagging)?;
    let payload = vec![b'x'; PAYLOAD];
    for i in 0..KEYSPACE {
        client.set(&mut sj, &preload_key(i), &payload)?;
    }
    let clock = sj.kernel().clock().clone();
    let jmp_get = per_op(&clock, |k| client.get(&mut sj, &preload_key(k)).map(drop))?;
    let jmp_set = per_op(&clock, |k| client.set(&mut sj, &preload_key(k), &payload))?;
    // Pure switch round trips (no command between the switches),
    // isolating the VAS-switch share of a visit. Measured last so the
    // get/set numbers above are unaffected by the extra traffic.
    let retry = spacejmp_core::RetryPolicy::default();
    let jmp_switch = per_op(&clock, |_| {
        sj.vas_switch_retry(pid, client.read_handle(), &retry)?;
        sj.vas_switch_home(pid)
    })?;

    // Classic server path (no sockets; those are added analytically).
    let mut sj2 = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, machine));
    sj2.set_tracer(tracer);
    let mut server = RedisServer::launch(&mut sj2, 0)?;
    let set = |k: usize| Command::Set(preload_key(k), payload.clone()).encode();
    for i in 0..KEYSPACE {
        server.handle_request(&mut sj2, &set(i))?;
    }
    let clock2 = sj2.kernel().clock().clone();
    let server_get = per_op(&clock2, |k| {
        let wire = Command::Get(preload_key(k)).encode();
        server.handle_request(&mut sj2, &wire).map(drop)
    })?;
    let server_set = per_op(&clock2, |k| {
        server.handle_request(&mut sj2, &set(k)).map(drop)
    })?;

    Ok(OpCosts {
        jmp_get,
        jmp_set,
        jmp_switch,
        server_get,
        server_set,
    })
}

/// Runs the classic socket-served design with `instances` independent
/// server processes (1 = `Redis`, 6 = `Redis 6x` in Figure 10a).
///
/// # Errors
///
/// Propagates measurement failures.
pub fn run_classic(cfg: &KvBenchConfig, instances: usize) -> SjResult<Throughput> {
    let costs = measure_costs_on(MachineId::M1, false, cfg.tracer.clone())?;
    let profile = MachineProfile::of(MachineId::M1);
    let cost = CostModel::default();
    let cores = profile.total_cores() as usize;

    // Server-side time per request: socket read + handle + socket write +
    // event-loop overhead.
    let loop_overhead = 2000u64;
    let server_time = |is_set: bool| {
        2 * cost.socket_msg
            + loop_overhead
            + if is_set {
                costs.server_set
            } else {
                costs.server_get
            }
    };
    // Client-side time per request: prepare+write, then read+process.
    let client_pre = cost.socket_msg + 500;
    let client_post = cost.socket_msg + 500;
    let wire = 300u64; // queueing latency of the in-kernel socket buffer

    // Event-driven closed loop. All core reservations happen at the
    // current event time, keeping the pool's timeline consistent.
    #[derive(Clone, Copy)]
    enum Ev {
        /// Client prepares and sends a request.
        Ready(usize),
        /// Request reaches the server's socket.
        Arrive(usize),
        /// Response reaches the client.
        Respond(usize),
    }

    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut sim: Sim<Ev> = Sim::new();
    for c in 0..cfg.clients {
        sim.schedule(0, Ev::Ready(c));
    }
    let mut server_free = vec![0u64; instances];
    let mut client_cores = Cores::new(cores.saturating_sub(instances).max(1));
    let mut population = ClosedLoop::new(cfg.clients, cfg.requests_per_client);
    let mut is_set = vec![false; cfg.clients];

    sim.run(|sim, t, ev| match ev {
        Ev::Ready(c) => {
            is_set[c] = rng.gen_range(0..100) < u64::from(cfg.set_pct);
            let (_, pe) = client_cores.reserve(t, client_pre);
            sim.schedule(pe + wire, Ev::Arrive(c));
        }
        Ev::Arrive(c) => {
            let s = c % instances;
            let start = server_free[s].max(t);
            let finish = start + server_time(is_set[c]);
            server_free[s] = finish;
            sim.schedule(finish + wire, Ev::Respond(c));
        }
        Ev::Respond(c) => {
            let (_, re) = client_cores.reserve(t, client_post);
            if population.complete(c, re) {
                sim.schedule(re, Ev::Ready(c));
            }
        }
    });
    Ok(throughput(&profile, population.done(), population.end()))
}

/// Extra cycles a shared-lock acquisition pays per already-active reader
/// (cache-line bouncing on the reader count).
pub(crate) const READER_BOUNCE: u64 = 250;
/// Extra cycles per queued waiter when a contended lock is handed off.
pub(crate) const WAITER_BOUNCE: u64 = 150;

/// Runs the RedisJMP design: N closed-loop clients switching into the
/// store VAS, serialized by the segment lock for writes. The serving
/// engine runs one shard with no admission bound and no deadline, so
/// every request completes.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn run_jmp(cfg: &KvBenchConfig) -> SjResult<Throughput> {
    let costs = measure_costs_on(MachineId::M1, cfg.tagging, cfg.tracer.clone())?;
    let engine = OverloadConfig {
        machine: MachineId::M1,
        shards: 1,
        clients: cfg.clients,
        requests: cfg.clients * cfg.requests_per_client,
        set_pct: cfg.set_pct,
        queue_cap: usize::MAX,
        deadline: u64::MAX,
        seed: cfg.seed,
        waiter_bounce: cfg.waiter_bounce,
        reader_bounce: cfg.reader_bounce,
        ..OverloadConfig::default()
    };
    let population = Population::Closed(ClosedLoop::new(cfg.clients, cfg.requests_per_client));
    let (res, end) = serve(&engine, &costs, population);
    Ok(throughput(
        &MachineProfile::of(MachineId::M1),
        res.completed,
        end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(clients: usize, set_pct: u8) -> KvBenchConfig {
        KvBenchConfig {
            clients,
            requests_per_client: 60,
            set_pct,
            ..KvBenchConfig::default()
        }
    }

    #[test]
    fn costs_are_sane() {
        let c = measure_costs_on(MachineId::M1, false, Tracer::disabled()).unwrap();
        assert!(
            c.jmp_get > 2 * 1127,
            "visit includes two untagged switches: {c:?}"
        );
        assert!(c.jmp_set >= c.jmp_get / 2, "{c:?}");
        assert!(c.server_get > 0 && c.server_set > 0);
        assert!(
            c.jmp_switch >= 2 * 1127 && c.jmp_switch < c.jmp_get,
            "switch round trip is a proper part of a visit: {c:?}"
        );
        // Tagged switches are cheaper end to end.
        let tagged = measure_costs_on(MachineId::M1, true, Tracer::disabled()).unwrap();
        assert!(tagged.jmp_get < c.jmp_get, "tagged {tagged:?} vs {c:?}");
    }

    #[test]
    fn single_client_jmp_beats_classic_by_severalfold() {
        // Figure 10a/b: "SpaceJMP outperforms a single server instance of
        // Redis by a factor of 4x for GET and SET requests."
        let jmp = run_jmp(&cfg(1, 0)).unwrap();
        let classic = run_classic(&cfg(1, 0), 1).unwrap();
        let ratio = jmp.rps / classic.rps;
        assert!((2.0..12.0).contains(&ratio), "GET ratio {ratio}");
        let jmp_s = run_jmp(&cfg(1, 100)).unwrap();
        let classic_s = run_classic(&cfg(1, 100), 1).unwrap();
        let ratio_s = jmp_s.rps / classic_s.rps;
        assert!((2.0..12.0).contains(&ratio_s), "SET ratio {ratio_s}");
    }

    #[test]
    fn classic_get_saturates_at_the_server() {
        let one = run_classic(&cfg(1, 0), 1).unwrap();
        let many = run_classic(&cfg(40, 0), 1).unwrap();
        assert!(many.rps > one.rps, "more clients fill the pipe");
        let more = run_classic(&cfg(80, 0), 1).unwrap();
        let growth = more.rps / many.rps;
        assert!(
            growth < 1.3,
            "single-threaded server is the bottleneck: {growth}"
        );
    }

    #[test]
    fn six_instances_scale_the_classic_design() {
        let one = run_classic(&cfg(48, 0), 1).unwrap();
        let six = run_classic(&cfg(48, 0), 6).unwrap();
        assert!(six.rps > 3.0 * one.rps, "6x {} vs 1x {}", six.rps, one.rps);
    }

    #[test]
    fn jmp_get_scales_with_clients_then_saturates() {
        let r1 = run_jmp(&cfg(1, 0)).unwrap();
        let r8 = run_jmp(&cfg(8, 0)).unwrap();
        let r40 = run_jmp(&cfg(40, 0)).unwrap();
        assert!(
            r8.rps > 2.0 * r1.rps,
            "parallel readers scale: {} vs {}",
            r8.rps,
            r1.rps
        );
        assert!(r40.rps < r8.rps * 4.0, "saturation past the core count");
    }

    #[test]
    fn jmp_set_serializes_and_degrades_under_contention() {
        let r1 = run_jmp(&cfg(1, 100)).unwrap();
        let r4 = run_jmp(&cfg(4, 100)).unwrap();
        let r60 = run_jmp(&cfg(60, 100)).unwrap();
        assert!(
            r4.rps < 2.0 * r1.rps,
            "writers do not scale: {} vs {}",
            r4.rps,
            r1.rps
        );
        assert!(
            r60.rps < r4.rps,
            "handoff overhead degrades throughput: {} vs {}",
            r60.rps,
            r4.rps
        );
    }

    #[test]
    fn mixed_throughput_decreases_with_set_share() {
        let pure_get = run_jmp(&cfg(24, 0)).unwrap();
        let mixed = run_jmp(&cfg(24, 30)).unwrap();
        let pure_set = run_jmp(&cfg(24, 100)).unwrap();
        assert!(
            pure_get.rps > mixed.rps,
            "{} vs {}",
            pure_get.rps,
            mixed.rps
        );
        assert!(
            mixed.rps > pure_set.rps,
            "{} vs {}",
            mixed.rps,
            pure_set.rps
        );
    }

    #[test]
    fn deterministic() {
        let a = run_jmp(&cfg(8, 20)).unwrap();
        let b = run_jmp(&cfg(8, 20)).unwrap();
        assert_eq!(a.requests, b.requests);
        assert!((a.rps - b.rps).abs() < 1e-9);
    }
}
