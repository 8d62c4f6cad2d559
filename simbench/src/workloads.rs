//! The four workloads: inputs generated from the seed, one timed repetition
//! through the public simulator API, and the correctness checks.
//!
//! * `hotspot` — closed loop, 65,536 ranks at 4 per node on MFCG; every rank
//!   off node 0 issues 16 blocking fetch-adds to rank 0 (the paper's Fig. 7
//!   pattern, scaled up). The seed draws each rank's start skew.
//! * `uniform` — closed loop, 16,384 ranks on CFCG; each rank issues 32
//!   blocking ops to seed-drawn ranks, cycling get 4 KiB, put 4 KiB,
//!   acc 64 B and fetch-add. Runnable, but not recorded in BENCHMARK.json
//!   (see `Workload::recorded`).
//! * `serve` — open loop in simulated time: the flash-crowd preset (1,024
//!   clients on MFCG, a 10x spike past hot-CHT saturation) with its horizon
//!   stretched to 1 s; the seed drives the arrival processes.
//! * `faults` — 1,024 chaos cells drawn from the seed at 48 ops per rank,
//!   each run through `run_cell`'s oracles.

use crate::trace::Tracer;
use std::fmt::{self, Write as _};
use std::time::Instant;
use vt_apps::chaos::{self, CellOutcome, ChaosCell, ChaosConfig};
use vt_apps::ServeScenarioConfig;
use vt_armci::cht::ChtCounters;
use vt_armci::{
    Action, FaultStats, Op, OpKind, Rank, RepairStats, Report, RuntimeConfig, ScriptProgram,
    ServeStats, SimTime, Simulation,
};
use vt_core::TopologyKind;
use vt_simnet::net::NetCounters;
use vt_simnet::DetRng;

pub const HOTSPOT_PROCS: u32 = 65_536;
pub const HOTSPOT_OPS: u32 = 16;
/// Upper bound of the seed-drawn start skew of a hotspot rank. Small next to
/// the run, so the seed moves timings without changing the pattern.
pub const HOTSPOT_SKEW_NS: u64 = 2_000;
pub const UNIFORM_PROCS: u32 = 16_384;
pub const UNIFORM_OPS: u32 = 32;
pub const SERVE_HORIZON: SimTime = SimTime::from_secs(1);
pub const FAULT_CELLS: u32 = 1_024;
pub const FAULT_OPS: u32 = 48;
pub const PPN: u32 = 4;

/// Oracle violations of `run_cell` that the unmodified simulator already
/// shows at 48 ops per rank (the known-defect register, see README.md).
/// A cell that violates only these counts its ops as failed; any other
/// violation fails the run's correctness verdict.
pub const KNOWN_DEFECTS: [&str; 2] = ["credit leak", "lost effect"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hotspot,
    Uniform,
    Serve,
    Faults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Hotspot,
        Workload::Uniform,
        Workload::Serve,
        Workload::Faults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hotspot => "hotspot",
            Workload::Uniform => "uniform",
            Workload::Serve => "serve",
            Workload::Faults => "faults",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether BENCHMARK.json records this workload. `uniform` is left out
    /// so that a full measurement of the recorded workloads fits in an hour
    /// at a run length long enough to be steady; of the four it had the
    /// widest `ns_per_op` spread and no per-layer metric of its own.
    pub fn recorded(self) -> bool {
        self != Workload::Uniform
    }
}

/// Inputs of a closed-loop workload, kept compact (one skew and a target
/// list per rank) so they add little to the process's peak RSS.
pub struct ClosedInputs {
    pub cfg: RuntimeConfig,
    pub ops_per_rank: u32,
    /// Ranks below this issue nothing (the hot node's own ranks).
    pub first_active: u32,
    pub skew_ns: Vec<u32>,
    /// `ops_per_rank` target ranks per rank, row-major.
    pub targets: Vec<u32>,
    /// Whether ops cycle through get/put/acc/fetch-add (else all fetch-add).
    pub mixed: bool,
}

impl ClosedInputs {
    pub fn hotspot(seed: u64) -> Self {
        let mut cfg = RuntimeConfig::new(HOTSPOT_PROCS, TopologyKind::Mfcg);
        cfg.procs_per_node = PPN;
        cfg.seed = seed;
        let mut rng = DetRng::new(seed).fork(0x4854);
        let skew_ns = (0..HOTSPOT_PROCS)
            .map(|_| rng.u64_below(HOTSPOT_SKEW_NS) as u32)
            .collect();
        ClosedInputs {
            cfg,
            ops_per_rank: HOTSPOT_OPS,
            first_active: PPN,
            skew_ns,
            targets: vec![0; (HOTSPOT_PROCS * HOTSPOT_OPS) as usize],
            mixed: false,
        }
    }

    pub fn uniform(seed: u64) -> Self {
        let mut cfg = RuntimeConfig::new(UNIFORM_PROCS, TopologyKind::Cfcg);
        cfg.procs_per_node = PPN;
        cfg.seed = seed;
        let mut rng = DetRng::new(seed).fork(0x554e);
        let n = UNIFORM_PROCS;
        let mut targets = Vec::with_capacity((n * UNIFORM_OPS) as usize);
        for rank in 0..n {
            for _ in 0..UNIFORM_OPS {
                // Uniform over the other ranks.
                let t = rng.u64_below(u64::from(n - 1)) as u32;
                targets.push(if t >= rank { t + 1 } else { t });
            }
        }
        ClosedInputs {
            cfg,
            ops_per_rank: UNIFORM_OPS,
            first_active: 0,
            skew_ns: vec![0; n as usize],
            targets,
            mixed: true,
        }
    }

    fn op(&self, i: u32, target: u32) -> Op {
        let t = Rank(target);
        match (self.mixed, i % 4) {
            (true, 0) => Op::get(t, 4096),
            (true, 1) => Op::put(t, 4096),
            (true, 2) => Op::acc(t, 64),
            _ => Op::fetch_add(t, 1),
        }
    }

    /// Rank `rank`'s ops, in issue order.
    pub fn ops(&self, rank: u32) -> impl Iterator<Item = Op> + '_ {
        let k = self.ops_per_rank as usize;
        let row = if rank < self.first_active {
            &[][..]
        } else {
            &self.targets[rank as usize * k..(rank as usize + 1) * k]
        };
        row.iter().enumerate().map(|(i, &t)| self.op(i as u32, t))
    }

    fn script(&self, rank: u32) -> ScriptProgram {
        let skew = u64::from(self.skew_ns[rank as usize]);
        let mut actions = Vec::with_capacity(self.ops_per_rank as usize + 1);
        if skew > 0 && rank >= self.first_active {
            actions.push(Action::Compute(SimTime::from_nanos(skew)));
        }
        actions.extend(self.ops(rank).map(Action::Op));
        ScriptProgram::new(actions)
    }

    pub fn issued(&self) -> u64 {
        u64::from(self.cfg.n_procs - self.first_active) * u64::from(self.ops_per_rank)
    }

    /// Final fetch-add counter of every rank if each op lands exactly once.
    pub fn expected_finals(&self) -> Vec<i64> {
        let mut finals = vec![0i64; self.cfg.n_procs as usize];
        for rank in self.first_active..self.cfg.n_procs {
            for op in self.ops(rank).filter(|op| op.kind == OpKind::FetchAdd) {
                finals[op.target.idx()] += op.amount;
            }
        }
        finals
    }

    pub fn build(&self) -> Simulation {
        Simulation::build(self.cfg, |rank| self.script(rank.0))
    }
}

pub fn serve_scenario(seed: u64) -> ServeScenarioConfig {
    ServeScenarioConfig {
        horizon: SERVE_HORIZON,
        seed,
        ..ServeScenarioConfig::flash_crowd()
    }
}

pub fn build_serve(sc: &ServeScenarioConfig) -> Simulation {
    Simulation::build(sc.runtime_config(), |_| ScriptProgram::new(vec![]))
}

pub fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        cells: FAULT_CELLS,
        ppn: PPN,
        ops_per_rank: FAULT_OPS,
        seed,
        threads: 1,
    }
}

/// Ops a chaos cell's workload issues: every rank but 0, `ops_per_rank` each.
pub fn cell_ops(cell: &ChaosCell) -> u64 {
    u64::from(cell.n_procs - 1) * u64::from(cell.ops_per_rank)
}

/// What the checks read from a finished closed or serve run.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    pub completed: u64,
    /// Terminal per-op failures reported (timed out / unreachable / shed).
    pub failures: u64,
    pub finals: Vec<i64>,
    pub credit_leaks: u64,
    pub serve: ServeStats,
}

impl Observed {
    pub fn of(r: &Report) -> Self {
        Observed {
            completed: r.metrics.total_ops(),
            failures: r.failures.len() as u64 + r.faults.failed_ops,
            finals: r.fetch_finals.clone(),
            credit_leaks: r.credit_leaks,
            serve: r.serve,
        }
    }
}

/// Closed-loop invariants: every issued op completes, every counter equals
/// the fetch-adds aimed at it (so rank 0's equals the completed ones on
/// `hotspot`), and no credit leaks.
pub fn check_closed(inputs: &ClosedInputs, o: &Observed) -> Vec<String> {
    let mut v = Vec::new();
    if o.completed != inputs.issued() {
        v.push(format!(
            "{} ops issued, {} completed",
            inputs.issued(),
            o.completed
        ));
    }
    if o.failures != 0 {
        v.push(format!("{} terminal op failures", o.failures));
    }
    let expected = inputs.expected_finals();
    if o.finals != expected {
        let bad = (0..expected.len().max(o.finals.len()))
            .find(|&i| o.finals.get(i) != expected.get(i))
            .unwrap_or(0);
        v.push(format!(
            "rank {bad} counter is {:?}, expected {:?}",
            o.finals.get(bad),
            expected.get(bad)
        ));
    }
    if o.credit_leaks != 0 {
        v.push(format!("{} credits leaked", o.credit_leaks));
    }
    v
}

/// Open-system invariants: every arrival is admitted or shed, every
/// admitted request completes or gives up, the hot counter lies between
/// completed and admitted (exactly-once), and no credit leaks.
pub fn check_serve(hot: Rank, o: &Observed) -> Vec<String> {
    let s = &o.serve;
    let mut v = Vec::new();
    if s.arrivals != s.admitted + s.sheds {
        v.push(format!(
            "arrivals {} != admitted {} + shed {}",
            s.arrivals, s.admitted, s.sheds
        ));
    }
    if s.admitted != s.completed + s.gave_up {
        v.push(format!(
            "admitted {} != completed {} + gave up {}",
            s.admitted, s.completed, s.gave_up
        ));
    }
    let counter = o.finals.get(hot.idx()).copied().unwrap_or(0);
    let (lo, hi) = (s.completed as i64, s.admitted as i64);
    if counter < lo || counter > hi {
        v.push(format!("hot counter {counter} outside [{lo}, {hi}]"));
    }
    if o.credit_leaks != 0 {
        v.push(format!("{} credits leaked", o.credit_leaks));
    }
    v
}

/// Splits a chaos cell's violations into registered known defects and
/// unexpected ones.
pub fn classify(violations: &[String]) -> (Vec<String>, Vec<String>) {
    violations
        .iter()
        .cloned()
        .partition(|v| KNOWN_DEFECTS.iter().any(|k| v.starts_with(k)))
}

/// Terminal op failures of a passing cell, read from its report digest
/// (the `failed_ops` field of the digest's `FaultStats`).
pub fn digest_failed_ops(digest: &str) -> u64 {
    digest
        .split("failed_ops: ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// FNV-1a over formatted text: a fingerprint of simulated statistics that
/// needs no dependency and never allocates the text.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Fingerprint of every simulated statistic in a report. The event count is
/// left out (an engine may schedule fewer events for the same model) and a
/// report holds no host time.
pub fn report_fingerprint(r: &Report) -> u64 {
    let mut h = Fnv::default();
    let _ = write!(
        h,
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        r.finish_time,
        r.metrics,
        r.net,
        r.cht_totals,
        r.memory_node0,
        r.top_links,
        r.faults,
        r.coalesce,
        r.repair,
        r.serve,
        r.serve_latencies_us,
        r.fetch_finals,
        r.failures,
        r.lost_ranks,
        r.credit_leaks,
    );
    h.0
}

/// Fingerprint of a campaign: every cell's oracle verdicts, counters and
/// report digest, with the digest's event count left out.
pub fn campaign_fingerprint(cells: &[CellOutcome]) -> u64 {
    let mut h = Fnv::default();
    for c in cells {
        let digest: Vec<&str> = c
            .digest
            .split(' ')
            .filter(|tok| !tok.starts_with("ev="))
            .collect();
        let _ = writeln!(
            h,
            "{} {:?} {} {} {} {} {} {} {} {} {} {} {} {} {} {:?} {}",
            c.idx,
            c.topology,
            c.n_procs,
            c.crashes,
            c.restarts,
            c.partitions,
            c.drop_windows,
            c.corrupt_windows,
            c.exec_seconds.to_bits(),
            c.retries,
            c.corrupt_detected,
            c.epoch_bumps,
            c.rejoins_committed,
            c.partitions_healed,
            c.false_suspicions_suppressed,
            c.violations,
            digest.join(" "),
        );
    }
    h.0
}

/// Simulated per-layer counts summed over a workload's reports.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub runs: u64,
    pub events: u64,
    pub makespan_ns: u64,
    pub net: NetCounters,
    pub cht: ChtCounters,
    pub credit_leaks: u64,
    pub serve: ServeStats,
    pub faults: FaultStats,
    pub repair: RepairStats,
}

impl Counts {
    pub fn add(&mut self, r: &Report) {
        self.runs += 1;
        self.events += r.events;
        self.makespan_ns += r.finish_time.as_nanos();
        let (n, m) = (&mut self.net, &r.net);
        n.messages += m.messages;
        n.stream_misses += m.stream_misses;
        n.hops += m.hops;
        let (c, d) = (&mut self.cht, &r.cht_totals);
        c.serviced += d.serviced;
        c.forwarded += d.forwarded;
        c.wakeups += d.wakeups;
        c.parked += d.parked;
        c.max_queue = c.max_queue.max(d.max_queue);
        self.credit_leaks += r.credit_leaks;
        self.serve = r.serve;
        let (f, g) = (&mut self.faults, &r.faults);
        f.retries += g.retries;
        f.dedup_hits += g.dedup_hits;
        f.corrupt_detected += g.corrupt_detected;
        self.repair.epoch_bumps += r.repair.epoch_bumps;
        self.repair.rejoins_committed += r.repair.rejoins_committed;
    }
}

/// One timed repetition of a workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Violations outside the known-defect register: the run is incorrect.
    pub violations: Vec<String>,
    /// Cells that violated only registered known defects.
    pub known_defect_cells: u64,
    pub makespan_ns: u64,
    pub fingerprint: u64,
    /// Layer counts (closed and serve runs; a campaign's come from a
    /// separate pass, see `replay::campaign_counts`).
    pub counts: Option<Counts>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn run_sim(
    tr: &mut Tracer,
    build: impl FnOnce() -> Simulation,
) -> (Result<Report, String>, f64, f64) {
    let root = tr.open("workload");
    let span = tr.open("armci.build");
    let (sim, setup_s) = timed(build);
    tr.close(span, 1);
    let span = tr.open("armci.run");
    let (result, run_s) = timed(|| sim.run().map_err(|e| e.to_string()));
    tr.close(span, 1);
    tr.close(root, 0);
    (result, setup_s, run_s)
}

fn finish(
    rep: &mut Rep,
    result: Result<Report, String>,
    check: impl FnOnce(&Observed) -> Vec<String>,
) -> Option<Report> {
    match result {
        Ok(report) => {
            rep.violations = check(&Observed::of(&report));
            rep.makespan_ns = report.finish_time.as_nanos();
            rep.fingerprint = report_fingerprint(&report);
            let mut counts = Counts::default();
            counts.add(&report);
            rep.counts = Some(counts);
            Some(report)
        }
        Err(e) => {
            rep.violations = vec![format!("run failed: {e}")];
            None
        }
    }
}

pub fn rep_closed(inputs: &ClosedInputs, tr: &mut Tracer) -> Rep {
    let (result, setup_s, run_s) = run_sim(tr, || inputs.build());
    let mut rep = Rep {
        setup_s,
        run_s,
        attempted: inputs.issued(),
        ..Rep::default()
    };
    finish(&mut rep, result, |o| check_closed(inputs, o));
    if !rep.violations.is_empty() {
        rep.failed = rep.attempted;
    }
    rep
}

pub fn rep_serve(sc: &ServeScenarioConfig, tr: &mut Tracer) -> Rep {
    let (result, setup_s, run_s) = run_sim(tr, || build_serve(sc));
    let mut rep = Rep {
        setup_s,
        run_s,
        ..Rep::default()
    };
    if let Some(report) = finish(&mut rep, result, |o| check_serve(sc.hot_rank(), o)) {
        let s = report.serve;
        rep.attempted = s.arrivals;
        rep.failed = if rep.violations.is_empty() {
            s.sheds + s.gave_up
        } else {
            s.arrivals
        };
    }
    rep.attempted = rep.attempted.max(1);
    rep
}

pub fn rep_faults(cfg: &ChaosConfig, tr: &mut Tracer) -> (Rep, Vec<ChaosCell>, Vec<CellOutcome>) {
    let root = tr.open("workload");
    let span = tr.open("apps.draw");
    let (cells, setup_s) = timed(|| chaos::draw_cells(cfg));
    tr.close(span, cells.len() as u64);
    let t0 = Instant::now();
    let outcomes: Vec<CellOutcome> = cells
        .iter()
        .map(|cell| {
            let span = tr.open("apps.run_cell");
            let out = chaos::run_cell(cell);
            tr.close(span, 1);
            out
        })
        .collect();
    let run_s = t0.elapsed().as_secs_f64();
    tr.close(root, 0);
    let mut rep = Rep {
        setup_s,
        run_s,
        fingerprint: campaign_fingerprint(&outcomes),
        ..Rep::default()
    };
    for (cell, out) in cells.iter().zip(&outcomes) {
        let ops = cell_ops(cell);
        rep.attempted += ops;
        rep.makespan_ns += (out.exec_seconds * 1e9).round() as u64;
        let (known, unexpected) = classify(&out.violations);
        if out.passed() {
            rep.failed += digest_failed_ops(&out.digest);
        } else {
            rep.failed += ops;
        }
        if !known.is_empty() && unexpected.is_empty() {
            rep.known_defect_cells += 1;
        }
        rep.violations.extend(
            unexpected
                .into_iter()
                .map(|v| format!("cell {}: {v}", cell.idx)),
        );
    }
    (rep, cells, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hotspot() -> ClosedInputs {
        let mut inputs = ClosedInputs::hotspot(3);
        inputs.cfg.n_procs = 64;
        inputs.skew_ns.truncate(64);
        inputs.targets.truncate(64 * HOTSPOT_OPS as usize);
        inputs
    }

    #[test]
    fn closed_check_passes_then_fires_on_a_perturbed_counter() {
        let inputs = small_hotspot();
        let report = inputs.build().run().expect("small hotspot runs");
        let o = Observed::of(&report);
        assert_eq!(check_closed(&inputs, &o), Vec::<String>::new());
        assert_eq!(o.finals[0], inputs.issued() as i64);

        let mut bad = o.clone();
        bad.finals[0] += 1;
        assert_eq!(check_closed(&inputs, &bad).len(), 1);
        let mut bad = o.clone();
        bad.credit_leaks = 1;
        assert_eq!(check_closed(&inputs, &bad).len(), 1);
        let mut bad = o;
        bad.completed -= 1;
        assert_eq!(check_closed(&inputs, &bad).len(), 1);
    }

    #[test]
    fn serve_check_passes_then_fires_on_a_perturbed_counter() {
        let sc = ServeScenarioConfig::steady_small();
        let report = build_serve(&sc).run().expect("small serve runs");
        let o = Observed::of(&report);
        assert!(o.serve.arrivals > 0);
        assert_eq!(check_serve(sc.hot_rank(), &o), Vec::<String>::new());

        let mut bad = o.clone();
        bad.serve.gave_up += 1;
        assert_eq!(check_serve(sc.hot_rank(), &bad).len(), 1);
        let mut bad = o;
        bad.finals[0] = bad.serve.admitted as i64 + 1;
        assert_eq!(check_serve(sc.hot_rank(), &bad).len(), 1);
    }

    #[test]
    fn fingerprint_moves_with_any_simulated_statistic() {
        let inputs = small_hotspot();
        let mut report = inputs.build().run().expect("small hotspot runs");
        let fp = report_fingerprint(&report);
        report.events += 1;
        assert_eq!(report_fingerprint(&report), fp, "events stay out of it");
        report.net.stream_misses += 1;
        assert_ne!(report_fingerprint(&report), fp);
    }

    #[test]
    fn uniform_inputs_never_target_self_and_cycle_the_mix() {
        let inputs = ClosedInputs::uniform(5);
        for rank in [0u32, 1, 777, UNIFORM_PROCS - 1] {
            let ops: Vec<Op> = inputs.ops(rank).collect();
            assert_eq!(ops.len(), UNIFORM_OPS as usize);
            assert!(ops.iter().all(|op| op.target != Rank(rank)));
            assert_eq!(ops[0].kind, OpKind::Get);
            assert_eq!(ops[3].kind, OpKind::FetchAdd);
        }
        assert_eq!(
            inputs.expected_finals().iter().sum::<i64>(),
            inputs.issued() as i64 / 4
        );
    }

    #[test]
    fn only_unregistered_violations_are_unexpected() {
        let v = vec![
            "credit leak: 1 live credits stranded".to_string(),
            "checksum gap: 2 corrupt frames delivered, 1 detected".to_string(),
        ];
        let (known, unexpected) = classify(&v);
        assert_eq!(known.len(), 1);
        assert_eq!(unexpected, vec![v[1].clone()]);
    }

    #[test]
    fn failed_ops_are_read_from_a_digest() {
        let d = "t=1ns ev=9 faults=FaultStats { retries: 3, failed_ops: 17, sheds: 0 } ops=4";
        assert_eq!(digest_failed_ops(d), 17);
        assert_eq!(digest_failed_ops("no such field"), 0);
    }
}
