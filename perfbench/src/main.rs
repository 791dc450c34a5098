//! `perfbench` — the SpaceJMP simulator's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for workloads, metrics, and the
//! layer → end-to-end map.
//!
//! ```text
//! perfbench --workload <gups|redisjmp|samtools|overload> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the per-layer set.
//! Earlier lines, prefixed `#`, are diagnostics. The exit code is 0 only
//! when every output check and self-check passed.

mod alloc_count;
mod gups;
mod host;
mod live;
mod overload;
mod redisjmp;
mod samtools;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::{lower_quartile, median, percentile, ratio, Spans};

#[global_allocator]
static GLOBAL: alloc_count::Counting = alloc_count::Counting;

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("host_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
    ("served_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("mem.tlb_miss_ratio", "ratio"),
    ("mem.walks_per_op", "walks/op"),
    ("mem.tlb_flushes_per_op", "flushes/op"),
    ("mem.translations_per_op", "xlates/op"),
    ("mem.frames_allocated", "frames"),
    ("os.load_u64.host_ns", "ns"),
    ("os.store_u64.host_ns", "ns"),
    ("os.load_u64.allocs", "allocs/call"),
    ("os.store_u64.allocs", "allocs/call"),
    ("os.spawn.host_ns", "ns"),
    ("os.exit.host_ns", "ns"),
    ("os.kernel_entries_per_op", "entries/op"),
    ("core.vas_switch.host_ns", "ns"),
    ("core.vas_switch.sim_cycles", "cycles"),
    ("core.vas_attach.host_ns", "ns"),
    ("core.vas_detach.host_ns", "ns"),
    ("core.switches_per_op", "switches/op"),
    ("core.lock_acquisitions_per_op", "locks/op"),
    ("core.lock_contentions_per_op", "conts/op"),
    ("core.retried_switch_ratio", "ratio"),
    ("kv.get.host_ns", "ns"),
    ("kv.set.host_ns", "ns"),
    ("kv.get.allocs", "allocs/call"),
    ("kv.set.allocs", "allocs/call"),
    ("kv.get.sim_cycles", "cycles"),
    ("kv.set.sim_cycles", "cycles"),
    ("kv.dict.resizes", "count"),
    ("kv.dict.rehash_migrations", "count"),
    ("kv.serve.host_ns_per_req", "ns"),
    ("kv.serve.allocs_per_req", "allocs/req"),
    ("kv.serve.shed_per_req", "sheds/req"),
    ("kv.serve.retries_per_req", "retries/req"),
    ("kv.serve.useful_ratio", "ratio"),
    ("kv.serve.max_queue", "requests"),
    ("kv.serve.backoff_share", "ratio"),
    ("kv.serve.queue_share", "ratio"),
    ("kv.serve.switch_share", "ratio"),
    ("kv.serve.service_share", "ratio"),
    ("kv.serve.x050.p99_cycles", "cycles"),
    ("kv.serve.x100.p99_cycles", "cycles"),
    ("kv.serve.x100.failed_ratio", "ratio"),
    ("kv.serve.capacity_rps", "req/s"),
    ("kv.measure_costs.host_s", "s"),
    ("genome.append.host_ns_per_record", "ns"),
    ("genome.append.allocs_per_record", "allocs/rec"),
    ("genome.flagstat.host_ns_per_record", "ns"),
    ("genome.qname_sort.host_ns_per_record", "ns"),
    ("genome.coordinate_sort.host_ns_per_record", "ns"),
    ("genome.build_index.host_ns_per_record", "ns"),
    ("genome.flagstat.sim_cycles_per_record", "cycles"),
    ("genome.qname_sort.sim_cycles_per_record", "cycles"),
    ("genome.coordinate_sort.sim_cycles_per_record", "cycles"),
    ("genome.build_index.sim_cycles_per_record", "cycles"),
    ("genome.comparisons_per_rep", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.failed_ratio", "ratio"),
    ("bench.latency_samples", "count"),
    ("bench.timed_reps", "count"),
];

/// No timed repetition is shorter than this much host time: shorter
/// regions swing too much on a shared host. Workloads size their reps
/// to exceed it and the harness checks they do.
const MIN_REP: Duration = Duration::from_millis(50);
/// Every round times at least this many reps, whatever `--seconds` says.
/// Simulated metrics cover exactly the first this-many timed reps: how
/// many reps fit in `--seconds` depends on the host, and simulated state
/// may drift from rep to rep (heap layout, for one), so a fixed prefix
/// keeps every simulated value a function of the seed alone. Every later
/// round must reproduce round 0's prefix exactly; a difference is
/// nondeterminism or tracing leaking into the simulation.
const MIN_TIMED_REPS: usize = 3;
/// Latency percentiles need this many samples (p99 then has ≥ 10
/// samples beyond it).
const MIN_LATENCY_SAMPLES: usize = 1000;

/// The simulated outcome of one or more repetitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimRep {
    /// Reps summed into this value.
    pub reps: u64,
    /// Ops (the denominator of every per-op metric).
    pub ops: u64,
    /// Simulated cycles consumed (summed over cores).
    pub cycles: u64,
    /// Workload-specific exact counters (layer deltas).
    pub counters: Vec<u64>,
    /// Simulated latency per request-like unit, in issue order.
    pub latencies: Vec<u64>,
}

impl SimRep {
    /// The sum of `reps`: counts add, latency samples concatenate.
    fn sum(reps: &[SimRep]) -> SimRep {
        let mut total = SimRep::default();
        for r in reps {
            total.reps += r.reps;
            total.ops += r.ops;
            total.cycles += r.cycles;
            total.counters.resize(r.counters.len(), 0);
            for (t, c) in total.counters.iter_mut().zip(&r.counters) {
                *t += c;
            }
            total.latencies.extend_from_slice(&r.latencies);
        }
        total
    }
}

/// One repetition's result.
pub struct Rep {
    pub sim: SimRep,
    /// Ops that returned an error or failed an output check.
    pub failed: u64,
}

/// What a round leaves after its timed reps.
#[derive(Default)]
pub struct Finish {
    /// Output checks that failed.
    pub failed_checks: u64,
    /// Latency samples measured outside the reps (samtools read-back,
    /// overload request-traced replay), if the reps carry none.
    pub latencies: Vec<u64>,
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// A benchmark workload. Set-up builds the simulated system and its
/// inputs from the seed; `rep(0)` is the discarded warm-up.
pub trait Workload: Sized {
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String>;
    fn rep(&mut self, index: u64, spans: &mut Spans) -> Result<Rep, String>;
    /// Output checks after the timed reps, plus any latency samples the
    /// reps do not carry.
    fn finish(&mut self) -> Result<Finish, String>;
    /// Share of the measured ops that were served (not refused).
    fn served_ratio(&self, _sim: &SimRep) -> f64 {
        1.0
    }
    /// Per-layer metrics from the measured reps and the traced spans.
    fn layer_metrics(
        &mut self,
        sim: &SimRep,
        spans: &Spans,
        out: &mut Metrics,
    ) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything measured in one round.
struct Round {
    setup_s: f64,
    /// Host ops per second of each timed rep.
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    finish: Finish,
}

/// Runs one round: fresh set-up, the warm-up rep, timed reps for
/// `budget`, then output checks. Every timed rep's simulated outcome is
/// compared with the same rep of round 0, collected in `reference`.
fn round<W: Workload>(
    seed: u64,
    budget: Duration,
    first: bool,
    spans: &mut Spans,
    reference: &mut Vec<SimRep>,
    mismatches: &mut u64,
) -> Result<(W, Round), String> {
    let t0 = Instant::now();
    let mut w = W::setup(seed, spans)?;
    let warm = w.rep(0, spans)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut rates = Vec::new();
    let mut attempted = 0;
    let mut failed = warm.failed;
    let timed = Instant::now();
    let mut index = 1;
    while rates.len() < MIN_TIMED_REPS || timed.elapsed() < budget {
        let t = Instant::now();
        let rep = w.rep(index, spans)?;
        let host = t.elapsed();
        if host < MIN_REP {
            return Err(format!("rep took {host:?}, under the {MIN_REP:?} floor"));
        }
        rates.push(rep.sim.ops as f64 / host.as_secs_f64());
        attempted += rep.sim.ops;
        failed += rep.failed;
        let at = rates.len() - 1;
        if first && at < MIN_TIMED_REPS {
            reference.push(rep.sim);
        } else if at < MIN_TIMED_REPS && reference[at] != rep.sim {
            println!("# FAIL: timed rep {index} differs from round 0's");
            *mismatches += 1;
        }
        index += 1;
    }
    let finish = w.finish()?;
    Ok((
        w,
        Round {
            setup_s,
            rates,
            attempted,
            failed,
            finish,
        },
    ))
}

/// The run's outcome: the JSON fields plus diagnostics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    // End-to-end runs set up three times (setup_s is their median);
    // traced runs pair one untraced round with one traced round, so the
    // two can be compared for overhead and simulated equality.
    let rounds = if args.trace { 2 } else { 3 };
    let budget = Duration::from_secs_f64(args.seconds / rounds as f64);
    let mut reference = Vec::new();
    let mut mismatches = 0;
    let mut all: Vec<Round> = Vec::new();
    let mut last = None;
    let mut spans = Spans::new(false);
    for r in 0..rounds {
        // Drop the previous round's simulated machine before building
        // the next, so peak memory is one round's.
        drop(last.take());
        if args.trace && r == 1 {
            spans = Spans::new(true);
        }
        let (w, round) = round::<W>(
            args.seed,
            budget,
            r == 0,
            &mut spans,
            &mut reference,
            &mut mismatches,
        )?;
        println!(
            "# round {r}: setup_s={:.4} timed_reps={} ops_per_s p25={:.1} median={:.1}{}",
            round.setup_s,
            round.rates.len(),
            lower_quartile(&round.rates),
            median(&round.rates),
            if spans.enabled() { " (traced)" } else { "" }
        );
        if r > 0 && round.finish.latencies != all[0].finish.latencies {
            println!("# FAIL: round {r}'s latency samples differ from round 0's");
            mismatches += 1;
        }
        all.push(round);
        last = Some(w);
    }
    let mut w = last.expect("at least one round");
    let sim = SimRep::sum(&reference);

    let mut sorted = if sim.latencies.is_empty() {
        all[0].finish.latencies.clone()
    } else {
        sim.latencies.clone()
    };
    sorted.sort_unstable();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed + r.finish.failed_checks).sum();
    let rates: Vec<f64> = all.iter().flat_map(|r| r.rates.iter().copied()).collect();
    let served = w.served_ratio(&sim) * (1.0 - ratio(failed, attempted));
    println!(
        "# {} timed reps; simulated metrics over the first {} ({} ops); {} latency samples; {} simulated mismatches",
        rates.len(),
        sim.reps,
        sim.ops,
        sorted.len(),
        mismatches
    );
    let mut correct = failed == 0 && mismatches == 0;
    if sorted.len() < MIN_LATENCY_SAMPLES {
        println!(
            "# FAIL: {} latency samples, need {MIN_LATENCY_SAMPLES}",
            sorted.len()
        );
        correct = false;
    }

    let mut values = Metrics::new();
    let table = if args.trace {
        w.layer_metrics(&sim, &spans, &mut values)?;
        let untraced = lower_quartile(&all[0].rates);
        let traced = lower_quartile(&all[1].rates);
        values.insert("bench.trace_overhead_ratio", traced / untraced);
        values.insert("bench.failed_ratio", 1.0 - served);
        values.insert("bench.latency_samples", sorted.len() as f64);
        values.insert("bench.timed_reps", rates.len() as f64);
        PER_LAYER
    } else {
        let setups: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
        values.insert("host_ops_per_s", lower_quartile(&rates));
        values.insert("setup_s", median(&setups));
        values.insert("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0));
        values.insert("sim_cycles_per_op", ratio(sim.cycles, sim.ops));
        values.insert("sim_p50_cycles", percentile(&sorted, 50.0) as f64);
        values.insert("sim_p99_cycles", percentile(&sorted, 99.0) as f64);
        values.insert("served_ratio", served);
        END_TO_END
    };
    if let Some(name) = values
        .keys()
        .find(|&&k| !table.iter().any(|&(n, _)| n == k))
    {
        return Err(format!("metric {name} is missing from the table"));
    }
    let metrics = table
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let window = host::HostWindow::start();
    let outcome = match args.workload.as_str() {
        "gups" => run::<gups::Gups>(&args),
        "redisjmp" => run::<redisjmp::RedisJmp>(&args),
        "samtools" => run::<samtools::Samtools>(&args),
        "overload" => run::<overload::Overload>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    println!("# {}", window.report());
    match outcome {
        Ok(o) => {
            println!("{}", json(&o));
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
