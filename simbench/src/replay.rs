//! Per-layer replays: each workload's own traffic shape driven straight
//! through one layer's public API, with a span around the calls.
//!
//! The simulator keeps wall clocks out of its crates, so the benchmark
//! cannot time a layer from inside a run. Instead it replays the workload's
//! operations through the layer alone — LDF routing in vt-core, the event
//! queue and network in vt-simnet, credits and CHT queues in vt-armci — and
//! reports nanoseconds per API call. The replays approximate the engine's
//! call pattern; the simulated counts in [`Counts`] are exact.

use crate::host;
use crate::trace::Tracer;
use crate::workloads::{cell_ops, ClosedInputs, Counts};
use std::collections::VecDeque;
use std::hint::black_box;
use vt_apps::chaos::{CellOutcome, ChaosCell};
use vt_apps::ServeScenarioConfig;
use vt_armci::buffers::{CreditKey, CreditManager, Waiter};
use vt_armci::cht::Cht;
use vt_armci::{
    Action, FaultPlan, MembershipConfig, Op, Rank, RuntimeConfig, ScriptProgram, Sender, SimTime,
    Simulation,
};
use vt_core::{TopologyKind, VirtualTopology};
use vt_simnet::{DetRng, EventQueue, Network, NetworkConfig, SendOutcome};

/// Simulated time between consecutive replayed operations.
const OP_GAP: SimTime = SimTime::from_nanos(100);

/// One network's worth of a workload's traffic.
pub struct Traffic {
    pub topology: TopologyKind,
    pub n_nodes: u32,
    pub ppn: u32,
    pub net: NetworkConfig,
    pub plan: FaultPlan,
    pub credits_per_edge: u32,
    pub cht_poll: SimTime,
    pub cht_wakeup: SimTime,
    /// `(origin rank, op)` in issue order.
    pub ops: Vec<(u32, Op)>,
    /// Operations in flight at once (one per active closed-loop rank).
    pub concurrency: usize,
}

impl Traffic {
    fn new(cfg: &RuntimeConfig, ops: Vec<(u32, Op)>, concurrency: usize) -> Self {
        Traffic {
            topology: cfg.topology,
            n_nodes: cfg.num_nodes(),
            ppn: cfg.procs_per_node,
            net: cfg.net,
            plan: FaultPlan::default(),
            credits_per_edge: cfg.buffers_per_proc,
            cht_poll: cfg.cht.poll_window,
            cht_wakeup: cfg.cht.wakeup_latency,
            ops,
            concurrency: concurrency.max(1),
        }
    }

    /// A closed workload's ops, round-robin over ranks as the closed loop
    /// issues them.
    pub fn closed(inputs: &ClosedInputs) -> Self {
        let rows: Vec<Vec<Op>> = (0..inputs.cfg.n_procs)
            .map(|r| inputs.ops(r).collect())
            .collect();
        let mut ops = Vec::with_capacity(inputs.issued() as usize);
        for i in 0..inputs.ops_per_rank as usize {
            for (r, row) in rows.iter().enumerate() {
                if let Some(&op) = row.get(i) {
                    ops.push((r as u32, op));
                }
            }
        }
        let active = (inputs.cfg.n_procs - inputs.first_active) as usize;
        Traffic::new(&inputs.cfg, ops, active)
    }

    /// Serve traffic: every client's fetch-adds at the hot rank, as many as
    /// the arrival process offers at its base rate over the horizon.
    pub fn serve(sc: &ServeScenarioConfig) -> Self {
        let cfg = sc.runtime_config();
        let per_client = (sc.arrivals.rate_per_sec * sc.horizon.as_secs_f64()).round() as usize;
        let hot = sc.hot_rank();
        let mut ops = Vec::with_capacity(per_client * cfg.n_procs as usize);
        for _ in 0..per_client {
            for r in 0..cfg.n_procs {
                if r != hot.0 {
                    ops.push((r, Op::fetch_add(hot, 1)));
                }
            }
        }
        Traffic::new(&cfg, ops, cfg.n_procs as usize * sc.queue_cap as usize)
    }

    /// A chaos cell's traffic under its drawn fault plan.
    pub fn cell(cell: &ChaosCell) -> Self {
        let cfg = cell_config(cell);
        let mut ops = Vec::with_capacity(cell_ops(cell) as usize);
        for _ in 0..cell.ops_per_rank {
            for r in 1..cell.n_procs {
                ops.push((r, Op::fetch_add(Rank(0), 1)));
            }
        }
        let mut t = Traffic::new(&cfg, ops, cell.n_procs as usize - 1);
        t.plan = cell.plan.clone();
        t
    }

    fn node(&self, rank: u32) -> u32 {
        rank / self.ppn
    }

    /// `(origin node, target node, op)` of every op that leaves its node.
    fn remote(&self) -> impl Iterator<Item = (u32, u32, &Op)> + '_ {
        self.ops.iter().filter_map(move |(r, op)| {
            let (a, b) = (self.node(*r), self.node(op.target.0));
            (a != b).then_some((a, b, op))
        })
    }
}

/// The runtime configuration `vt_apps::chaos` runs a cell under.
fn cell_config(cell: &ChaosCell) -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(cell.n_procs, cell.topology);
    rt.procs_per_node = cell.ppn;
    rt.seed = cell.seed;
    rt.membership = MembershipConfig::on();
    rt
}

/// `TopologyKind::build` for every network of the workload; returns seconds
/// to build them all once.
pub fn core_build(shapes: &[Traffic], tr: &mut Tracer) -> f64 {
    // A single grid builds in well under a microsecond: repeat to resolve it.
    let reps = if shapes.len() == 1 { 10_000 } else { 1 };
    let span = tr.open("core.build");
    for _ in 0..reps {
        for s in shapes {
            black_box(black_box(s.topology).build(black_box(s.n_nodes)));
        }
    }
    tr.close(span, (reps * shapes.len()) as u64);
    tr.ns_per_call("core.build") * 1e-9 * shapes.len() as f64
}

/// `Grid::next_hop` along the LDF route of every CHT-path op.
pub fn core_next_hop(shapes: &[Traffic], tr: &mut Tracer) -> f64 {
    for s in shapes {
        let grid = s.topology.build(s.n_nodes);
        let pairs: Vec<(u32, u32)> = s
            .remote()
            .filter(|(_, _, op)| !op.kind.is_direct())
            .map(|(a, b, _)| (a, b))
            .collect();
        let span = tr.open("core.next_hop");
        let mut calls = 0u64;
        for &(a, b) in &pairs {
            let mut cur = a;
            loop {
                calls += 1;
                match grid.next_hop(black_box(cur), b) {
                    Some(next) => cur = next,
                    None => break,
                }
            }
        }
        tr.close(span, calls);
    }
    tr.ns_per_call("core.next_hop")
}

/// Sends every op's messages: the request along its LDF route (one hop for
/// the direct RDMA kinds) with a buffer-release ack per forwarded hop, and
/// the response straight back.
fn send_pattern(
    s: &Traffic,
    grid: &vt_core::Grid,
    mut send: impl FnMut(SimTime, u32, u32, u64),
) -> u64 {
    let mut now = SimTime::ZERO;
    let mut calls = 0u64;
    for (a, b, op) in s.remote() {
        now += OP_GAP;
        let mut cur = a;
        if op.kind.is_direct() {
            send(now, a, b, op.request_bytes());
            calls += 1;
        } else {
            while let Some(next) = grid.next_hop(cur, b) {
                send(now, cur, next, op.request_bytes());
                if cur != a {
                    send(now, next, cur, Op::ack_bytes());
                    calls += 1;
                }
                calls += 1;
                cur = next;
            }
        }
        send(now, b, a, op.response_bytes());
        calls += 1;
    }
    calls
}

/// `Network::send` over the workload's message pattern; returns (ns per
/// send, RSS growth in MiB from the network's build plus the replay).
pub fn simnet_send(shapes: &[Traffic], tr: &mut Tracer) -> (f64, f64) {
    let mut rss_growth = 0.0f64;
    for s in shapes {
        let grid = s.topology.build(s.n_nodes);
        let before = host::rss_mb();
        let span = tr.open("simnet.net_build");
        let mut net = Network::new(s.net, s.n_nodes);
        tr.close(span, 1);
        let span = tr.open("simnet.send");
        let calls = send_pattern(s, &grid, |now, a, b, bytes| {
            black_box(net.send(now, a, b, bytes));
        });
        tr.close(span, calls);
        rss_growth = rss_growth.max(host::rss_mb() - before);
        black_box(net.counters());
    }
    (tr.ns_per_call("simnet.send"), rss_growth)
}

/// `Network::send_faulted` over the same pattern under the workload's fault
/// plan (the empty plan, and so the fault-free path, outside `faults`).
pub fn simnet_send_faulted(shapes: &[Traffic], tr: &mut Tracer) -> f64 {
    for s in shapes {
        let grid = s.topology.build(s.n_nodes);
        let mut net = Network::with_faults(s.net, s.n_nodes, &s.plan);
        let span = tr.open("simnet.send_faulted");
        let calls = send_pattern(s, &grid, |now, a, b, bytes| {
            if let SendOutcome::Delivered(d) = net.send_faulted(now, a, b, bytes) {
                black_box(d);
            }
        });
        tr.close(span, calls);
    }
    tr.ns_per_call("simnet.send_faulted")
}

/// `EventQueue::{schedule, pop}` at the workload's event count and
/// concurrency: `concurrency` pending events, each pop scheduling one more.
/// Delays are uniform around `mean_delay_ns`, the residence time a run
/// implies (Little's law: concurrency × makespan / events); a `timer_share`
/// of them are retransmission timers `timer` ahead, past the calendar's ring.
pub fn simnet_queue(
    events: u64,
    concurrency: usize,
    mean_delay_ns: f64,
    timer_share: f64,
    timer: SimTime,
    tr: &mut Tracer,
) -> f64 {
    let spread = (2.0 * mean_delay_ns.max(1.0)) as u64 + 1;
    let mut rng = DetRng::new(0x51);
    let mut delays = || {
        if rng.f64() < timer_share {
            timer
        } else {
            SimTime::from_nanos(rng.u64_below(spread))
        }
    };
    let mut q: EventQueue<u32> = EventQueue::new();
    let span = tr.open("simnet.queue");
    for i in 0..concurrency {
        q.schedule(delays(), i as u32);
    }
    let mut calls = concurrency as u64;
    for _ in 0..events {
        let Some((at, e)) = q.pop() else { break };
        q.schedule(at + delays(), black_box(e));
        calls += 2;
    }
    tr.close(span, calls);
    tr.ns_per_call("simnet.queue")
}

/// `CreditManager::{try_acquire, wait, release}` over the workload's
/// forwarding edges: every op takes a credit on each edge of its LDF route
/// (its process's on the first, the forwarding CHT's after), parking when
/// the account is exhausted; the oldest credit is released whenever more
/// than `concurrency` are held, handing it to a parked waiter if one queues.
pub fn armci_credit(shapes: &[Traffic], tr: &mut Tracer) -> f64 {
    for s in shapes {
        let grid = s.topology.build(s.n_nodes);
        let mut cm = CreditManager::new(s.credits_per_edge);
        let mut held: VecDeque<CreditKey> = VecDeque::new();
        let span = tr.open("armci.credit");
        let mut calls = 0u64;
        for (i, (r, op)) in s.ops.iter().enumerate() {
            let (a, b) = (s.node(*r), s.node(op.target.0));
            if a == b || op.kind.is_direct() {
                continue;
            }
            let mut cur = a;
            while let Some(next) = grid.next_hop(cur, b) {
                let key = if cur == a {
                    CreditKey {
                        sender: Sender::Proc(Rank(*r)),
                        edge: (cur, next),
                        class: 0,
                    }
                } else {
                    CreditKey::cht(cur, next, 0)
                };
                calls += 1;
                if cm.try_acquire(key) {
                    held.push_back(key);
                } else {
                    cm.wait(
                        key,
                        Waiter::Fwd {
                            node: cur,
                            req: i as u32,
                        },
                    );
                    calls += 1;
                }
                cur = next;
            }
            while held.len() > s.concurrency {
                calls += release_oldest(&mut cm, &mut held);
            }
        }
        while !held.is_empty() {
            calls += release_oldest(&mut cm, &mut held);
        }
        tr.close(span, calls);
        black_box(cm.total_in_flight());
    }
    tr.ns_per_call("armci.credit")
}

/// Releases the oldest held credit; returns the API calls made.
fn release_oldest(cm: &mut CreditManager, held: &mut VecDeque<CreditKey>) -> u64 {
    let Some(key) = held.pop_front() else {
        return 0;
    };
    if cm.release(key).is_some() {
        // The credit moved to the oldest waiter, which now holds it.
        held.push_back(key);
    }
    1
}

/// `Cht::{enqueue, begin_service, end_service}`: every CHT-path op is
/// queued at each server on its route, and after every `concurrency` ops
/// each touched CHT drains its queue one service at a time.
pub fn armci_cht(shapes: &[Traffic], tr: &mut Tracer) -> f64 {
    const SERVICE: SimTime = SimTime::from_nanos(900);
    for s in shapes {
        let grid = s.topology.build(s.n_nodes);
        let mut chts: Vec<Cht> = (0..s.n_nodes).map(|_| Cht::new()).collect();
        let mut touched: Vec<u32> = Vec::new();
        let mut now = SimTime::ZERO;
        let span = tr.open("armci.cht");
        let mut calls = 0u64;
        let mut batch = 0usize;
        for (i, (a, b, op)) in s.remote().enumerate() {
            if op.kind.is_direct() {
                continue;
            }
            let mut cur = a;
            while let Some(next) = grid.next_hop(cur, b) {
                if chts[next as usize].enqueue(i as u32) {
                    touched.push(next);
                }
                calls += 1;
                cur = next;
            }
            batch += 1;
            if batch >= s.concurrency {
                batch = 0;
                for &n in &touched {
                    let cht = &mut chts[n as usize];
                    while let Some(req) = cht.pop_head() {
                        now += black_box(cht.begin_service(now, s.cht_poll, s.cht_wakeup));
                        now += SERVICE;
                        cht.end_service(now);
                        black_box(req);
                        calls += 2;
                    }
                }
                touched.clear();
            }
        }
        tr.close(span, calls);
        black_box(chts.iter().map(|c| c.counters.max_queue).max());
    }
    tr.ns_per_call("armci.cht")
}

/// Runs every chaos cell once more through the public API, exactly as
/// `vt_apps::chaos` runs it, to read the simulated counts `run_cell` does
/// not return. Returns the summed counts and any cell whose replay disagrees
/// with its `run_cell` outcome.
pub fn campaign_counts(
    cells: &[ChaosCell],
    outcomes: &[CellOutcome],
    tr: &mut Tracer,
) -> (Counts, Vec<String>) {
    let mut counts = Counts::default();
    let mut mismatches = Vec::new();
    for (cell, out) in cells.iter().zip(outcomes) {
        let ops = cell.ops_per_rank;
        let span = tr.open("armci.build");
        let sim = Simulation::build_with_faults(
            cell_config(cell),
            move |rank| {
                let mut script = Vec::new();
                if rank != Rank(0) {
                    script.push(Action::Compute(SimTime::from_micros(
                        2 + u64::from(rank.0 % 7),
                    )));
                    script.extend((0..ops / 2).map(|_| Action::Op(Op::fetch_add(Rank(0), 1))));
                    script.push(Action::Compute(SimTime::from_millis(30)));
                    script
                        .extend((0..ops - ops / 2).map(|_| Action::Op(Op::fetch_add(Rank(0), 1))));
                }
                ScriptProgram::new(script)
            },
            &cell.plan,
        )
        .with_repair_certifier(vt_analyze::certify_repair);
        tr.close(span, 1);
        let span = tr.open("armci.run");
        let result = sim.run();
        tr.close(span, 1);
        match result {
            Ok(r) => {
                let same = r.finish_time.as_secs_f64() == out.exec_seconds
                    && r.faults.retries == out.retries
                    && r.faults.corrupt_detected == out.corrupt_detected
                    && r.repair.epoch_bumps == out.epoch_bumps
                    && r.repair.rejoins_committed == out.rejoins_committed;
                if !same {
                    mismatches.push(format!("cell {}: replay differs from run_cell", cell.idx));
                }
                counts.add(&r);
            }
            Err(e) => {
                if out.exec_seconds != 0.0 {
                    mismatches.push(format!("cell {}: replay failed: {e}", cell.idx));
                }
            }
        }
    }
    (counts, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::chaos_config;

    #[test]
    fn campaign_replay_matches_run_cell() {
        let cfg = vt_apps::ChaosConfig {
            cells: 8,
            ..chaos_config(2)
        };
        let cells = vt_apps::chaos::draw_cells(&cfg);
        let outcomes: Vec<CellOutcome> = cells.iter().map(vt_apps::chaos::run_cell).collect();
        let (counts, mismatches) = campaign_counts(&cells, &outcomes, &mut Tracer::off());
        assert_eq!(mismatches, Vec::<String>::new());
        assert_eq!(counts.runs, 8);
        assert!(counts.faults.retries + counts.faults.corrupt_detected > 0);
    }

    #[test]
    fn replays_make_calls_on_every_layer() {
        let cfg = vt_apps::ChaosConfig {
            cells: 2,
            ..chaos_config(1)
        };
        let shapes: Vec<Traffic> = vt_apps::chaos::draw_cells(&cfg)
            .iter()
            .map(Traffic::cell)
            .collect();
        let mut tr = Tracer::on(1);
        assert!(simnet_send(&shapes, &mut tr).0 > 0.0);
        assert!(simnet_send_faulted(&shapes, &mut tr) > 0.0);
        assert!(core_build(&shapes, &mut tr) > 0.0);
        assert!(core_next_hop(&shapes, &mut tr) > 0.0);
        assert!(armci_credit(&shapes, &mut tr) > 0.0);
        assert!(armci_cht(&shapes, &mut tr) > 0.0);
        assert!(simnet_queue(1_000, 8, 500.0, 0.1, SimTime::from_millis(5), &mut tr) > 0.0);
    }
}
