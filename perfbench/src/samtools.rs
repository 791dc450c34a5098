//! `samtools`: the SpaceJMP SAMTools pipeline on M2. Set-up builds the
//! persistent store VAS and appends the generated records with
//! `RecStore::append` (the write path). A rep runs flagstat, qname_sort,
//! coordinate_sort and build_index, each as a fresh process: spawn →
//! vas_attach → vas_switch → tool → vas_detach → exit. An op is one
//! record processed by one tool.

use sjmp_genome::modes::charge;
use sjmp_genome::{generate, ops, Flagstat, LinearIndex, OpWork, RecStore, Record, WorkloadConfig};
use sjmp_mem::cost::{KernelFlavor, MachineId};
use sjmp_mem::VirtAddr;
use sjmp_os::{Creds, Kernel, Mode, Pid};
use spacejmp_core::{AttachMode, SegId, SjResult, SpaceJmp, VasHeap, VasId};

use crate::live::{self, Snapshot};
use crate::spans::{ratio, Call, Spans};
use crate::{Finish, Metrics, Rep, SimRep, Workload};

const RECORDS: usize = 80_000;
const STORE_VA: u64 = 0x1000_0000_0000;
/// Fixed part + blobs + heap overhead per record, doubled, plus room
/// for the index every rep persists.
const SEGMENT_BYTES: u64 = 256 << 20;
const TOOLS: [Call; 4] = [
    Call::Flagstat,
    Call::QnameSort,
    Call::CoordinateSort,
    Call::BuildIndex,
];
/// Counter indices this workload appends after the shared ones.
const TOOL_CYCLES: usize = live::COUNT;
const COMPARISONS: usize = live::COUNT + TOOLS.len();

pub struct Samtools {
    sj: SpaceJmp,
    vid: VasId,
    sid: SegId,
    n_refs: usize,
    /// Expected outputs, from the host reference implementations.
    flagstat: Flagstat,
    index: Option<LinearIndex>,
    records: Vec<Record>,
}

/// A tool's output, checked against the host reference.
enum Output {
    Flagstat(Flagstat),
    Sorted,
    Index(LinearIndex),
}

impl Samtools {
    /// Runs `tool` as a fresh process inside the persistent VAS and
    /// returns its output, work counts and simulated cycles (the tool
    /// body plus its modeled compute, not the process lifecycle).
    fn tool(
        &mut self,
        call: Call,
        spans: &mut Spans,
        verify: bool,
    ) -> Result<(Output, OpWork, u64, Vec<Record>), String> {
        let e = |e: spacejmp_core::SjError| format!("samtools {call:?}: {e:?}");
        let sj = &mut self.sj;
        let pid = spans
            .time(Call::Spawn, || {
                sj.kernel_mut().spawn("samtool", Creds::new(1, 1))
            })
            .map_err(|x| e(x.into()))?;
        sj.kernel_mut().activate(pid).map_err(|x| e(x.into()))?;
        let vid = self.vid;
        let vh = spans
            .time(Call::VasAttach, || sj.vas_attach(pid, vid))
            .map_err(e)?;
        spans
            .time(Call::VasSwitch, || sj.vas_switch(pid, vh))
            .map_err(e)?;
        let heap = VasHeap::open(sj, pid, self.sid).map_err(e)?;
        let store = RecStore::open(sj, pid, heap).map_err(e)?;
        let c0 = sj.kernel().total_cycles();
        let n_refs = self.n_refs;
        let (out, work, compute) = spans
            .time(call, || -> SjResult<_> {
                Ok(match call {
                    Call::Flagstat => {
                        let (fs, w) = store.flagstat(sj, pid)?;
                        (Output::Flagstat(fs), w, w.records * charge::SCAN)
                    }
                    Call::QnameSort => {
                        let w = store.qname_sort(sj, pid)?;
                        (Output::Sorted, w, w.comparisons * charge::QNAME_CMP)
                    }
                    Call::CoordinateSort => {
                        let w = store.coordinate_sort(sj, pid)?;
                        (Output::Sorted, w, w.comparisons * charge::COORD_CMP)
                    }
                    _ => {
                        let (index, w) = store.build_index(sj, pid, n_refs)?;
                        (Output::Index(index), w, w.records * charge::SCAN)
                    }
                })
            })
            .map_err(e)?;
        let core = sj.kernel().ctx_of(pid).map_err(|x| e(x.into()))?.core;
        sj.kernel().clocks().advance(core, compute);
        let cycles = sj.kernel().total_cycles() - c0;
        // The verifying read-back (warm-up rep only) runs in the same
        // process after the tool, outside its cycle count.
        let readback = if verify {
            read_back(sj, pid, &store).map_err(e)?.0
        } else {
            Vec::new()
        };
        sj.vas_switch_home(pid).map_err(e)?;
        spans
            .time(Call::VasDetach, || sj.vas_detach(pid, vh))
            .map_err(e)?;
        spans
            .time(Call::Exit, || sj.kernel_mut().exit(pid))
            .map_err(|x| e(x.into()))?;
        Ok((out, work, cycles, readback))
    }
}

/// Reads every record back in stored order, with each read's simulated
/// cycles.
fn read_back(sj: &mut SpaceJmp, pid: Pid, store: &RecStore) -> SjResult<(Vec<Record>, Vec<u64>)> {
    let n = store.count(sj, pid)?;
    let mut records = Vec::with_capacity(n as usize);
    let mut cycles = Vec::with_capacity(n as usize);
    for i in 0..n {
        let c0 = sj.kernel().total_cycles();
        records.push(store.read_record(sj, pid, i)?);
        cycles.push(sj.kernel().total_cycles() - c0);
    }
    Ok((records, cycles))
}

/// Identity of a record for permutation checks.
fn ident(r: &Record) -> (String, u16, i32, i32) {
    (r.qname.clone(), r.flag, r.tid, r.pos)
}

/// Whether `got` is a permutation of `want` (compared by identity).
fn same_records(got: &[Record], want: &[Record]) -> bool {
    let mut a: Vec<_> = got.iter().map(ident).collect();
    let mut b: Vec<_> = want.iter().map(ident).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

fn coord_sorted(records: &[Record]) -> bool {
    records
        .windows(2)
        .all(|w| w[0].coord_key() <= w[1].coord_key())
}

/// Checks every index lookup of a mapped record: it must name the first
/// record of that record's (reference, window) run.
fn lookups_correct(index: &LinearIndex, records: &[Record]) -> bool {
    let window = |r: &Record| (r.tid, r.pos / ops::INDEX_WINDOW);
    records.iter().enumerate().all(|(i, r)| {
        if !r.is_mapped() || r.tid < 0 {
            return true;
        }
        match index.lookup(r.tid as usize, r.pos) {
            Some(f) => {
                let f = f as usize;
                f <= i
                    && window(&records[f]) == window(r)
                    && (f == 0 || window(&records[f - 1]) != window(r))
            }
            None => false,
        }
    })
}

impl Workload for Samtools {
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let e = |e: spacejmp_core::SjError| format!("samtools setup: {e:?}");
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
        let pid = sj
            .kernel_mut()
            .spawn("loader", Creds::new(1, 1))
            .map_err(|x| e(x.into()))?;
        sj.kernel_mut().activate(pid).map_err(|x| e(x.into()))?;
        let vid = sj
            .vas_create(pid, "samtools-data", Mode(0o660))
            .map_err(e)?;
        let sid = sj
            .seg_alloc(
                pid,
                "samtools-seg",
                VirtAddr::new(STORE_VA),
                SEGMENT_BYTES,
                Mode(0o660),
            )
            .map_err(e)?;
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)
            .map_err(e)?;
        let vh = sj.vas_attach(pid, vid).map_err(e)?;
        sj.vas_switch(pid, vh).map_err(e)?;
        let heap = VasHeap::format(&mut sj, pid, sid).map_err(e)?;
        let store = RecStore::create(&mut sj, pid, heap, RECORDS as u64).map_err(e)?;
        let (dict, records) = generate(&WorkloadConfig {
            records: RECORDS,
            seed,
            ..WorkloadConfig::default()
        });
        for r in &records {
            spans
                .time(Call::Append, || store.append(&mut sj, pid, r))
                .map_err(e)?;
        }
        sj.vas_switch_home(pid).map_err(e)?;
        sj.vas_detach(pid, vh).map_err(e)?;
        sj.kernel_mut().exit(pid).map_err(|x| e(x.into()))?;
        Ok(Samtools {
            sj,
            vid,
            sid,
            n_refs: dict.refs.len(),
            flagstat: ops::flagstat(&records).0,
            index: None,
            records,
        })
    }

    fn rep(&mut self, index: u64, spans: &mut Spans) -> Result<Rep, String> {
        // The warm-up rep reads the store back after each sort and
        // derives the expected index from the coordinate order it saw.
        let verify = index == 0;
        let before = Snapshot::take(&self.sj);
        let mut failed = 0;
        let mut tool_cycles = Vec::with_capacity(TOOLS.len());
        let mut comparisons = 0;
        for call in TOOLS {
            let (out, work, cycles, readback) = self.tool(call, spans, verify)?;
            tool_cycles.push(cycles);
            comparisons += work.comparisons;
            let ok = match out {
                Output::Flagstat(fs) => fs == self.flagstat,
                Output::Sorted if !verify => true,
                Output::Sorted => {
                    let ordered = if call == Call::QnameSort {
                        readback.windows(2).all(|w| w[0].qname <= w[1].qname)
                    } else {
                        let ok = coord_sorted(&readback);
                        let (want, _) = ops::build_index(self.n_refs, &readback);
                        self.index = Some(want);
                        ok
                    };
                    ordered && same_records(&readback, &self.records)
                }
                Output::Index(got) => Some(&got) == self.index.as_ref(),
            };
            if !ok {
                println!("# FAIL: samtools rep {index}: {call:?} output is wrong");
                failed += work.records;
            }
        }
        let (cycles, mut counters) = Snapshot::take(&self.sj).since(&before);
        counters.extend(tool_cycles);
        counters.push(comparisons);
        Ok(Rep {
            sim: SimRep {
                reps: 1,
                ops: (TOOLS.len() * RECORDS) as u64,
                cycles,
                counters,
                latencies: Vec::new(),
            },
            failed,
        })
    }

    fn finish(&mut self) -> Result<Finish, String> {
        // A `view` process reads the final store back: it must still be
        // the coordinate-sorted record set, every index lookup must land
        // on the right record, and each read's simulated cycles are the
        // workload's latency samples.
        let e = |e: spacejmp_core::SjError| format!("samtools view: {e:?}");
        let sj = &mut self.sj;
        let pid = sj
            .kernel_mut()
            .spawn("view", Creds::new(1, 1))
            .map_err(|x| e(x.into()))?;
        sj.kernel_mut().activate(pid).map_err(|x| e(x.into()))?;
        let vh = sj.vas_attach(pid, self.vid).map_err(e)?;
        sj.vas_switch(pid, vh).map_err(e)?;
        let heap = VasHeap::open(sj, pid, self.sid).map_err(e)?;
        let store = RecStore::open(sj, pid, heap).map_err(e)?;
        let (records, cycles) = read_back(sj, pid, &store).map_err(e)?;
        sj.vas_switch_home(pid).map_err(e)?;
        sj.vas_detach(pid, vh).map_err(e)?;
        sj.kernel_mut().exit(pid).map_err(|x| e(x.into()))?;
        let index = self.index.as_ref().ok_or("no index built")?;
        let ok = coord_sorted(&records)
            && same_records(&records, &self.records)
            && lookups_correct(index, &records);
        if !ok {
            println!("# FAIL: samtools final store or index lookups are wrong");
        }
        Ok(Finish {
            failed_checks: u64::from(!ok),
            latencies: cycles,
        })
    }

    fn layer_metrics(
        &mut self,
        sim: &SimRep,
        spans: &Spans,
        out: &mut Metrics,
    ) -> Result<(), String> {
        live::layer_metrics(&self.sj, sim, out);
        let records = RECORDS as u64;
        let tool_records = records * sim.reps;
        out.insert("os.spawn.host_ns", spans.median_ns(Call::Spawn));
        out.insert("os.exit.host_ns", spans.median_ns(Call::Exit));
        out.insert("core.vas_switch.host_ns", spans.median_ns(Call::VasSwitch));
        out.insert("core.vas_attach.host_ns", spans.median_ns(Call::VasAttach));
        out.insert("core.vas_detach.host_ns", spans.median_ns(Call::VasDetach));
        out.insert(
            "genome.append.host_ns_per_record",
            spans.median_ns(Call::Append),
        );
        out.insert(
            "genome.append.allocs_per_record",
            spans.allocs_per_call(Call::Append),
        );
        let names = [
            (
                "genome.flagstat.host_ns_per_record",
                "genome.flagstat.sim_cycles_per_record",
            ),
            (
                "genome.qname_sort.host_ns_per_record",
                "genome.qname_sort.sim_cycles_per_record",
            ),
            (
                "genome.coordinate_sort.host_ns_per_record",
                "genome.coordinate_sort.sim_cycles_per_record",
            ),
            (
                "genome.build_index.host_ns_per_record",
                "genome.build_index.sim_cycles_per_record",
            ),
        ];
        for (i, (call, (host, sim_name))) in TOOLS.iter().zip(names).enumerate() {
            out.insert(host, spans.median_ns_per(*call, records));
            out.insert(sim_name, ratio(sim.counters[TOOL_CYCLES + i], tool_records));
        }
        out.insert(
            "genome.comparisons_per_rep",
            ratio(sim.counters[COMPARISONS], sim.reps),
        );
        Ok(())
    }
}
