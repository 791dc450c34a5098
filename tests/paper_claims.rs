//! Integration tests asserting the paper's headline claims end-to-end,
//! across all crates of the workspace.

use spacejmp::gups::{run as gups_run, Design, GupsConfig};
use spacejmp::kv::{measure_costs_on, JmpClient};
use spacejmp::prelude::*;
use spacejmp::rpc::SimSocket;

/// Table 2: the full vas_switch costs, measured through the real stack.
#[test]
fn table2_switch_costs() {
    for (flavor, tagging, expected) in [
        (KernelFlavor::DragonFly, false, 1127u64),
        (KernelFlavor::DragonFly, true, 807),
        (KernelFlavor::Barrelfish, false, 664),
        (KernelFlavor::Barrelfish, true, 462),
    ] {
        let mut sj = SpaceJmp::new(Kernel::new(flavor, MachineId::M2));
        sj.kernel_mut().set_tagging(tagging);
        let pid = sj.kernel_mut().spawn("p", Creds::new(1, 1)).unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
        if tagging {
            sj.vas_ctl(pid, VasCtl::RequestTag, vid).unwrap();
        }
        let vh = sj.vas_attach(pid, vid).unwrap();
        let t0 = sj.kernel().clock().now();
        sj.vas_switch(pid, vh).unwrap();
        assert_eq!(
            sj.kernel().clock().since(t0),
            expected,
            "{flavor:?} tagged={tagging}"
        );
    }
}

/// Section 1: "if an application wishes to address larger physical
/// memory than virtual address bits allow" — a process reaches N
/// disjoint physical windows through one VA.
#[test]
fn addresses_beyond_a_single_va_window() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M3));
    let pid = sj.kernel_mut().spawn("big", Creds::new(1, 1)).unwrap();
    let va = VirtAddr::new(0x1000_0000_0000);
    let mut handles = Vec::new();
    for w in 0..12 {
        let vid = sj.vas_create(pid, &format!("w{w}"), Mode(0o600)).unwrap();
        let sid = sj
            .seg_alloc(pid, &format!("s{w}"), va, 1 << 20, Mode(0o600))
            .unwrap();
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
        handles.push(sj.vas_attach(pid, vid).unwrap());
    }
    for (w, vh) in handles.iter().enumerate() {
        sj.vas_switch(pid, *vh).unwrap();
        sj.kernel_mut().store_u64(pid, va, w as u64).unwrap();
        sj.vas_switch_home(pid).unwrap();
    }
    for (w, vh) in handles.iter().enumerate() {
        sj.vas_switch(pid, *vh).unwrap();
        assert_eq!(sj.kernel_mut().load_u64(pid, va).unwrap(), w as u64);
        sj.vas_switch_home(pid).unwrap();
    }
}

/// Section 5.2: switching beats remapping; remapping cost grows with the
/// window, switching does not.
#[test]
fn switching_beats_remapping() {
    let cfg = GupsConfig {
        windows: 8,
        updates_per_set: 16,
        epochs: 48,
        ..GupsConfig::default()
    };
    let jmp = gups_run(Design::Jmp, &cfg).unwrap();
    let map = gups_run(Design::Map, &cfg).unwrap();
    assert!(
        jmp.mups > 2.0 * map.mups,
        "JMP {} vs MAP {}",
        jmp.mups,
        map.mups
    );
}

/// Section 5.3: two switches are far cheaper than a socket round trip —
/// the premise of RedisJMP — and the measured visit confirms it.
#[test]
fn switch_pair_beats_socket_round_trip() {
    let cost = spacejmp::mem::CostModel::default();
    let socket = SimSocket::round_trip_cost(&cost, 32, 16);
    let costs =
        measure_costs_on(MachineId::M1, false, spacejmp::trace::Tracer::disabled()).unwrap();
    assert!(
        costs.jmp_get < socket,
        "full RedisJMP visit ({}) must beat the socket round trip ({})",
        costs.jmp_get,
        socket
    );
}

/// Section 3.1: lockable segments give readers parallelism and writers
/// exclusion across *processes*.
#[test]
fn lockable_segments_across_processes() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
    let mut clients = Vec::new();
    for i in 0..3 {
        let pid = sj
            .kernel_mut()
            .spawn(&format!("c{i}"), Creds::new(100, 100))
            .unwrap();
        sj.kernel_mut().activate(pid).unwrap();
        clients.push(JmpClient::join(&mut sj, pid, "locks", i).unwrap());
    }
    clients[0].set(&mut sj, b"k", b"v").unwrap();
    // Two readers in simultaneously.
    let (p0, r0) = (clients[0].pid(), clients[0].read_handle());
    let (p1, r1) = (clients[1].pid(), clients[1].read_handle());
    sj.vas_switch(p0, r0).unwrap();
    sj.vas_switch(p1, r1).unwrap();
    // Writer excluded.
    assert_eq!(
        clients[2].set(&mut sj, b"k", b"w"),
        Err(SjError::WouldBlock)
    );
    sj.vas_switch_home(p0).unwrap();
    sj.vas_switch_home(p1).unwrap();
    clients[2].set(&mut sj, b"k", b"w").unwrap();
    assert_eq!(clients[0].get(&mut sj, b"k").unwrap(), Some(b"w".to_vec()));
}

/// Section 2.2 / 5.4: pointer-rich structures survive process lifetimes
/// with pointers intact (no serialization, no swizzling).
#[test]
fn pointers_survive_process_lifetimes() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    let seg_base = VirtAddr::new(0x1000_0000_0000);

    // Process A builds a linked list in a VAS-resident heap.
    let pa = sj.kernel_mut().spawn("builder", Creds::new(7, 7)).unwrap();
    sj.kernel_mut().activate(pa).unwrap();
    let vid = sj.vas_create(pa, "list-vas", Mode(0o660)).unwrap();
    let sid = sj
        .seg_alloc(pa, "list-seg", seg_base, 1 << 20, Mode(0o660))
        .unwrap();
    sj.seg_attach(pa, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pa, vid).unwrap();
    sj.vas_switch(pa, vh).unwrap();
    let heap = VasHeap::format(&mut sj, pa, sid).unwrap();
    // Nodes: [value, next_ptr], linked head -> 0 -> 1 -> 2.
    let mut next = VirtAddr::NULL;
    for v in (0..3u64).rev() {
        let node = heap.malloc(&mut sj, pa, 16).unwrap();
        sj.kernel_mut().store_u64(pa, node, v * 100).unwrap();
        sj.kernel_mut()
            .store_u64(pa, node.add(8), next.raw())
            .unwrap();
        next = node;
    }
    heap.set_root(&mut sj, pa, next).unwrap();
    sj.vas_switch_home(pa).unwrap();
    sj.vas_detach(pa, vh).unwrap();
    sj.kernel_mut().exit(pa).unwrap();

    // Process B walks the list by raw pointers.
    let pb = sj.kernel_mut().spawn("walker", Creds::new(7, 7)).unwrap();
    sj.kernel_mut().activate(pb).unwrap();
    let vid = sj.vas_find("list-vas").unwrap();
    let vh = sj.vas_attach(pb, vid).unwrap();
    sj.vas_switch(pb, vh).unwrap();
    let sid = sj.seg_find("list-seg").unwrap();
    let heap = VasHeap::open(&mut sj, pb, sid).unwrap();
    let mut node = heap.root(&mut sj, pb).unwrap();
    let mut values = Vec::new();
    while node != VirtAddr::NULL {
        values.push(sj.kernel_mut().load_u64(pb, node).unwrap());
        node = VirtAddr::new(sj.kernel_mut().load_u64(pb, node.add(8)).unwrap());
    }
    assert_eq!(values, vec![0, 100, 200]);
}

/// Section 4.4 + Figure 6: tags retain translations across switches.
#[test]
fn tags_retain_translations() {
    let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M2));
    sj.kernel_mut().set_tagging(true);
    let pid = sj.kernel_mut().spawn("t", Creds::new(1, 1)).unwrap();
    sj.kernel_mut().activate(pid).unwrap();
    let va = VirtAddr::new(0x1000_0000_0000);
    let vid = sj.vas_create(pid, "v", Mode(0o600)).unwrap();
    sj.vas_ctl(pid, VasCtl::RequestTag, vid).unwrap();
    let sid = sj.seg_alloc(pid, "s", va, 1 << 20, Mode(0o600)).unwrap();
    sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite).unwrap();
    let vh = sj.vas_attach(pid, vid).unwrap();
    sj.vas_switch(pid, vh).unwrap();
    sj.kernel_mut().store_u64(pid, va, 1).unwrap();
    let core = sj.kernel().process(pid).unwrap().core();
    let before = sj.kernel_mut().core_mem(core).0.stats().walks;
    for _ in 0..10 {
        sj.vas_switch_home(pid).unwrap();
        sj.vas_switch(pid, vh).unwrap();
        sj.kernel_mut().load_u64(pid, va).unwrap();
    }
    let after = sj.kernel_mut().core_mem(core).0.stats().walks;
    assert_eq!(
        after, before,
        "ten tagged round trips, zero extra page walks"
    );
}

/// The safety tool chain, end to end: a cross-VAS bug is caught by the
/// inserted check, and the fixed version runs clean with zero checks.
#[test]
fn safety_toolchain_end_to_end() {
    use spacejmp::safety::{
        analysis::Analysis,
        checks::{insert_checks, CheckPolicy},
        interp::{Interp, Trap},
        ir::{AbstractVas, BlockId, Function, Inst, Module, VasName},
    };

    // Buggy: allocate in VAS 0, dereference while in VAS 1.
    let mut buggy = Module::new();
    let mut f = Function::new("main", 0);
    let p = f.fresh_reg();
    let x = f.fresh_reg();
    f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    f.push(BlockId(0), Inst::Switch(VasName(1)));
    f.push(BlockId(0), Inst::Load { dst: x, addr: p });
    f.push(BlockId(0), Inst::Ret(None));
    buggy.add_function(f);

    let entry: spacejmp::safety::VasSet = [AbstractVas::Vas(VasName(0))].into_iter().collect();
    let analysis = Analysis::run(&buggy, entry.clone());
    let report = insert_checks(&mut buggy, &analysis, CheckPolicy::Analyzed);
    assert_eq!(report.deref_checks, 1);
    let mut interp = Interp::new(&buggy, VasName(0));
    assert!(matches!(
        interp.run(&[]).unwrap_err(),
        Trap::CheckFailed { .. }
    ));

    // Fixed: switch back before dereferencing.
    let mut fixed = Module::new();
    let mut f = Function::new("main", 0);
    let p = f.fresh_reg();
    let c = f.fresh_reg();
    let x = f.fresh_reg();
    f.push(BlockId(0), Inst::Malloc { dst: p, size: 8 });
    f.push(BlockId(0), Inst::Const { dst: c, value: 5 });
    f.push(BlockId(0), Inst::Store { addr: p, val: c });
    f.push(BlockId(0), Inst::Switch(VasName(1)));
    f.push(BlockId(0), Inst::Switch(VasName(0)));
    f.push(BlockId(0), Inst::Load { dst: x, addr: p });
    f.push(BlockId(0), Inst::Ret(Some(x)));
    fixed.add_function(f);
    let analysis = Analysis::run(&fixed, entry);
    let report = insert_checks(&mut fixed, &analysis, CheckPolicy::Analyzed);
    assert_eq!(
        report.deref_checks + report.store_checks,
        0,
        "provably safe"
    );
    let mut interp = Interp::new(&fixed, VasName(0));
    assert_eq!(
        interp.run(&[]).unwrap(),
        Some(spacejmp::safety::Value::Int(5))
    );
}
