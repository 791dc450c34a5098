//! `gups`: SpaceJMP GUPS on M3 (DragonFly kernel, untagged). Sixteen
//! 8 MiB windows — twice the M3 TLB reach — share one virtual address,
//! one VAS each. A visit switches to a uniformly chosen window and
//! applies 64 random read-modify-write updates; an op is one update.

use std::collections::HashMap;

use sjmp_mem::cost::{KernelFlavor, MachineId};
use sjmp_mem::{VirtAddr, PAGE_SIZE};
use sjmp_os::kernel::GLOBAL_LO;
use sjmp_os::{Creds, Kernel, Mode, Pid};
use sjmp_sim::SimRng;
use spacejmp_core::{AttachMode, SpaceJmp, VasHandle};

use crate::live::{self, Snapshot};
use crate::spans::{ratio, Call, Spans};
use crate::{Finish, Metrics, Rep, SimRep, Workload};

const WINDOWS: usize = 16;
const WINDOW_BYTES: u64 = 8 << 20;
const UPDATES_PER_VISIT: usize = 64;
/// Visits per rep: sized so one rep takes well over 50 ms of host time.
const VISITS_PER_REP: usize = 2048;
/// Updates whose slots are read back against the host shadow.
const CHECK_SAMPLES: usize = 1024;
/// Counter index of the cycles the rep's switches took.
const SWITCH_CYCLES: usize = live::COUNT;

const SLOTS: u64 = WINDOW_BYTES / 8;
const WORDS_PER_PAGE: u64 = PAGE_SIZE / 8;

pub struct Gups {
    sj: SpaceJmp,
    pid: Pid,
    handles: Vec<VasHandle>,
    window_va: VirtAddr,
    /// The window of each visit, then the slot of each update.
    visits: Vec<u8>,
    slots: Vec<u32>,
    current: usize,
    /// XOR of the salts of every rep run so far, and how many ran.
    salt_acc: u64,
    reps_run: u64,
    seed: u64,
    /// Checked slots: (window, slot) → updates per rep.
    sample: Vec<((usize, u64), u64)>,
}

/// The value set-up writes into the first word of every page.
fn page_mark(seed: u64, window: usize, slot: u64) -> u64 {
    if slot.is_multiple_of(WORDS_PER_PAGE) {
        seed ^ ((window as u64) << 40) ^ slot
    } else {
        0
    }
}

/// Per-rep XOR salt: each rep stores different values so a lost or
/// misdirected store cannot cancel out across reps.
fn salt(seed: u64, rep: u64) -> u64 {
    SimRng::seed_from_u64(seed ^ rep.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

impl Workload for Gups {
    fn setup(seed: u64, _spans: &mut Spans) -> Result<Self, String> {
        let e = |e: spacejmp_core::SjError| format!("gups setup: {e:?}");
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M3));
        let pid = sj
            .kernel_mut()
            .spawn("gups", Creds::new(1, 1))
            .map_err(|x| e(x.into()))?;
        sj.kernel_mut().activate(pid).map_err(|x| e(x.into()))?;
        let window_va = VirtAddr::new(GLOBAL_LO.raw());
        let mut handles = Vec::with_capacity(WINDOWS);
        for w in 0..WINDOWS {
            let vid = sj
                .vas_create(pid, &format!("gups-w{w}"), Mode(0o600))
                .map_err(e)?;
            let sid = sj
                .seg_alloc(
                    pid,
                    &format!("gups-s{w}"),
                    window_va,
                    WINDOW_BYTES,
                    Mode(0o600),
                )
                .map_err(e)?;
            sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
                .map_err(e)?;
            let vh = sj.vas_attach(pid, vid).map_err(e)?;
            // First touch of every page happens here, not in a timed rep.
            sj.vas_switch(pid, vh).map_err(e)?;
            for slot in (0..SLOTS).step_by(WORDS_PER_PAGE as usize) {
                sj.kernel_mut()
                    .store_u64(pid, window_va.add(slot * 8), page_mark(seed, w, slot))
                    .map_err(|x| e(x.into()))?;
            }
            handles.push(vh);
        }

        let mut rng = SimRng::seed_from_u64(seed);
        let visits: Vec<u8> = (0..VISITS_PER_REP)
            .map(|_| rng.index(WINDOWS) as u8)
            .collect();
        let slots: Vec<u32> = (0..VISITS_PER_REP * UPDATES_PER_VISIT)
            .map(|_| rng.gen_range(0..SLOTS) as u32)
            .collect();
        let mut per_rep: HashMap<(usize, u64), u64> = HashMap::new();
        for (u, &slot) in slots.iter().enumerate() {
            *per_rep
                .entry((visits[u / UPDATES_PER_VISIT] as usize, u64::from(slot)))
                .or_default() += 1;
        }
        let mut sample: Vec<((usize, u64), u64)> = (0..CHECK_SAMPLES)
            .map(|_| {
                let u = rng.index(slots.len());
                let key = (visits[u / UPDATES_PER_VISIT] as usize, u64::from(slots[u]));
                (key, per_rep[&key])
            })
            .collect();
        sample.sort_unstable();
        sample.dedup();
        Ok(Gups {
            sj,
            pid,
            handles,
            window_va,
            visits,
            slots,
            current: WINDOWS - 1,
            salt_acc: 0,
            reps_run: 0,
            seed,
            sample,
        })
    }

    fn rep(&mut self, index: u64, spans: &mut Spans) -> Result<Rep, String> {
        let e = |e: spacejmp_core::SjError| format!("gups rep: {e:?}");
        let salt = salt(self.seed, index);
        let before = Snapshot::take(&self.sj);
        let mut latencies = Vec::with_capacity(VISITS_PER_REP);
        let mut switch_cycles = 0;
        let (sj, pid, va) = (&mut self.sj, self.pid, self.window_va);
        for (v, &w) in self.visits.iter().enumerate() {
            let start = sj.kernel().total_cycles();
            let w = w as usize;
            if w != self.current {
                let vh = self.handles[w];
                spans
                    .time(Call::VasSwitch, || sj.vas_switch(pid, vh))
                    .map_err(e)?;
                switch_cycles += sj.kernel().total_cycles() - start;
                self.current = w;
            }
            for &slot in &self.slots[v * UPDATES_PER_VISIT..(v + 1) * UPDATES_PER_VISIT] {
                let slot = u64::from(slot);
                let addr = va.add(slot * 8);
                let k = sj.kernel_mut();
                let old = spans
                    .time(Call::LoadU64, || k.load_u64(pid, addr))
                    .map_err(|x| e(x.into()))?;
                spans
                    .time(Call::StoreU64, || k.store_u64(pid, addr, old ^ slot ^ salt))
                    .map_err(|x| e(x.into()))?;
            }
            latencies.push(sj.kernel().total_cycles() - start);
        }
        let (cycles, mut counters) = Snapshot::take(&self.sj).since(&before);
        self.salt_acc ^= salt;
        self.reps_run += 1;
        counters.push(switch_cycles);
        Ok(Rep {
            sim: SimRep {
                reps: 1,
                ops: (VISITS_PER_REP * UPDATES_PER_VISIT) as u64,
                cycles,
                counters,
                latencies,
            },
            failed: 0,
        })
    }

    fn finish(&mut self) -> Result<Finish, String> {
        let e = |e: spacejmp_core::SjError| format!("gups check: {e:?}");
        let mut failed = 0;
        let (sj, pid) = (&mut self.sj, self.pid);
        let odd_reps = self.reps_run % 2 == 1;
        for &((w, slot), updates) in &self.sample {
            if w != self.current {
                sj.vas_switch(pid, self.handles[w]).map_err(e)?;
                self.current = w;
            }
            let got = sj
                .kernel_mut()
                .load_u64(pid, self.window_va.add(slot * 8))
                .map_err(|x| e(x.into()))?;
            // Each update XORs in slot ^ salt(rep): a slot updated an
            // odd number of times per rep accumulates slot once per rep
            // and every rep's salt.
            let mut want = page_mark(self.seed, w, slot);
            if updates % 2 == 1 {
                want ^= self.salt_acc ^ if odd_reps { slot } else { 0 };
            }
            if got != want {
                failed += 1;
            }
        }
        if failed > 0 {
            println!("# FAIL: gups read back {failed} wrong slots");
        }
        Ok(Finish {
            failed_checks: failed,
            latencies: Vec::new(),
        })
    }

    fn layer_metrics(
        &mut self,
        sim: &SimRep,
        spans: &Spans,
        out: &mut Metrics,
    ) -> Result<(), String> {
        let c = |i: usize| sim.counters[i];
        live::layer_metrics(&self.sj, sim, out);
        out.insert("os.load_u64.host_ns", spans.median_ns(Call::LoadU64));
        out.insert("os.store_u64.host_ns", spans.median_ns(Call::StoreU64));
        out.insert("os.load_u64.allocs", spans.allocs_per_call(Call::LoadU64));
        out.insert("os.store_u64.allocs", spans.allocs_per_call(Call::StoreU64));
        out.insert("core.vas_switch.host_ns", spans.median_ns(Call::VasSwitch));
        out.insert(
            "core.vas_switch.sim_cycles",
            ratio(c(SWITCH_CYCLES), c(live::SWITCHES)),
        );
        Ok(())
    }
}
