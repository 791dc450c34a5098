//! `redisjmp`: live RedisJMP on M1. Eight client processes, each with a
//! `JmpClient` on one shared store, take turns issuing requests (a closed
//! loop: the next request is issued only after the previous completes).
//! The store holds 4096 keys with 4-byte values; requests are 90% GET /
//! 10% SET over uniform keys. An op is one request.

use sjmp_kv::JmpClient;
use sjmp_mem::cost::{KernelFlavor, MachineId};
use sjmp_os::{Creds, Kernel};
use sjmp_sim::SimRng;
use spacejmp_core::SpaceJmp;

use crate::live::{self, Snapshot};
use crate::spans::{ratio, Call, Spans};
use crate::{Finish, Metrics, Rep, SimRep, Workload};

const CLIENTS: usize = 8;
const KEYS: usize = 4096;
const SET_PCT: u64 = 10;
/// Requests per rep: sized so one rep takes well over 50 ms of host time.
const REQUESTS_PER_REP: usize = 8192;

fn key(i: usize) -> Vec<u8> {
    format!("key:{i:06}").into_bytes()
}

/// The 4-byte value request `n` (counted over the whole run) writes.
fn value(n: u64) -> [u8; 4] {
    (n as u32 ^ 0x5eed_0000).to_le_bytes()
}

pub struct RedisJmp {
    sj: SpaceJmp,
    clients: Vec<JmpClient>,
    keys: Vec<Vec<u8>>,
    /// The request stream every rep replays: (is_set, key index).
    stream: Vec<(bool, usize)>,
    /// Host shadow of the store: the last value set per key.
    shadow: Vec<[u8; 4]>,
}

/// Counter indices this workload appends after the shared ones.
const RESIZES: usize = live::COUNT;
const MIGRATIONS: usize = live::COUNT + 1;

impl Workload for RedisJmp {
    fn setup(seed: u64, _spans: &mut Spans) -> Result<Self, String> {
        let e = |e: spacejmp_core::SjError| format!("redisjmp setup: {e:?}");
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let pid = sj
                .kernel_mut()
                .spawn(&format!("client{c}"), Creds::new(100, 100))
                .map_err(|x| e(x.into()))?;
            sj.kernel_mut().activate(pid).map_err(|x| e(x.into()))?;
            clients.push(JmpClient::join(&mut sj, pid, "bench", c).map_err(e)?);
        }
        let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
        let mut shadow = Vec::with_capacity(KEYS);
        for (i, k) in keys.iter().enumerate() {
            let v = value(u64::MAX - i as u64);
            clients[i % CLIENTS].set(&mut sj, k, &v).map_err(e)?;
            shadow.push(v);
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let stream = (0..REQUESTS_PER_REP)
            .map(|_| (rng.gen_range(0..100) < SET_PCT, rng.index(KEYS)))
            .collect();
        Ok(RedisJmp {
            sj,
            clients,
            keys,
            stream,
            shadow,
        })
    }

    fn rep(&mut self, index: u64, spans: &mut Spans) -> Result<Rep, String> {
        let e = |e: spacejmp_core::SjError| format!("redisjmp rep: {e:?}");
        let dict_before = dict_stats(&self.clients);
        let before = Snapshot::take(&self.sj);
        let mut latencies = Vec::with_capacity(self.stream.len());
        let mut failed = 0;
        let sj = &mut self.sj;
        for (i, &(is_set, k)) in self.stream.iter().enumerate() {
            let client = &mut self.clients[i % CLIENTS];
            let key = &self.keys[k];
            let start = sj.kernel().total_cycles();
            if is_set {
                let v = value(index * REQUESTS_PER_REP as u64 + i as u64);
                spans
                    .time(Call::KvSet, || client.set(sj, key, &v))
                    .map_err(e)?;
                self.shadow[k] = v;
            } else {
                let got = spans.time(Call::KvGet, || client.get(sj, key)).map_err(e)?;
                if got.as_deref() != Some(&self.shadow[k][..]) {
                    failed += 1;
                }
            }
            latencies.push(sj.kernel().total_cycles() - start);
        }
        let (cycles, mut counters) = Snapshot::take(&self.sj).since(&before);
        let dict_after = dict_stats(&self.clients);
        counters.push(dict_after.0 - dict_before.0);
        counters.push(dict_after.1 - dict_before.1);
        if failed > 0 {
            println!("# FAIL: redisjmp rep {index}: {failed} GETs disagree with the shadow");
        }
        Ok(Rep {
            sim: SimRep {
                reps: 1,
                ops: self.stream.len() as u64,
                cycles,
                counters,
                latencies,
            },
            failed,
        })
    }

    fn finish(&mut self) -> Result<Finish, String> {
        // Every GET of every rep was checked against the shadow inline.
        Ok(Finish::default())
    }

    fn layer_metrics(
        &mut self,
        sim: &SimRep,
        spans: &Spans,
        out: &mut Metrics,
    ) -> Result<(), String> {
        live::layer_metrics(&self.sj, sim, out);
        out.insert("kv.get.host_ns", spans.median_ns(Call::KvGet));
        out.insert("kv.set.host_ns", spans.median_ns(Call::KvSet));
        out.insert("kv.get.allocs", spans.allocs_per_call(Call::KvGet));
        out.insert("kv.set.allocs", spans.allocs_per_call(Call::KvSet));
        let (mut get, mut set) = ((0, 0), (0, 0));
        for (&(is_set, _), &cycles) in self.stream.iter().cycle().zip(&sim.latencies) {
            let slot = if is_set { &mut set } else { &mut get };
            slot.0 += cycles;
            slot.1 += 1;
        }
        out.insert("kv.get.sim_cycles", ratio(get.0, get.1));
        out.insert("kv.set.sim_cycles", ratio(set.0, set.1));
        out.insert("kv.dict.resizes", ratio(sim.counters[RESIZES], sim.reps));
        out.insert(
            "kv.dict.rehash_migrations",
            ratio(sim.counters[MIGRATIONS], sim.reps),
        );
        Ok(())
    }
}

/// (resizes, rehash migrations) summed over clients. `JmpClient` keeps
/// its `DictStats` private and exposes them only through `Debug`, so
/// they are read from there.
fn dict_stats(clients: &[JmpClient]) -> (u64, u64) {
    let field = |s: &str, name: &str| -> u64 {
        s.split(name)
            .nth(1)
            .and_then(|rest| {
                let digits: String = rest
                    .chars()
                    .filter(|c| !c.is_whitespace())
                    .skip(1)
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits.parse().ok()
            })
            .unwrap_or(0)
    };
    clients.iter().fold((0, 0), |acc, c| {
        let s = format!("{c:?}");
        (
            acc.0 + field(&s, "resizes"),
            acc.1 + field(&s, "rehash_migrations"),
        )
    })
}
