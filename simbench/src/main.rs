//! End-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! simbench --workload <hotspot|uniform|serve|faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, single-threaded, repeating it until
//! `--seconds` is spent, and checks every repetition's simulated outputs.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! replays the workload through each layer's API under spans and reports
//! the per-layer metrics, span self times and the tracing overhead. The
//! last line of standard output is the result as one JSON object. See
//! README.md for the metrics, workloads and known-defect register.

#![forbid(unsafe_code)]

mod host;
mod replay;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{ClosedInputs, Counts, Rep, Workload};

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ns_per_op", "ns"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_us", "us"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics: name, unit.
const PER_LAYER: [(&str, &str); 31] = [
    ("core.build_s", "s"),
    ("core.next_hop_ns", "ns"),
    ("simnet.events", "count"),
    ("simnet.events_per_op", "ratio"),
    ("simnet.queue_ns", "ns"),
    ("simnet.send_ns", "ns"),
    ("simnet.send_faulted_ns", "ns"),
    ("simnet.net_rss_mb", "MB"),
    ("net.messages_per_op", "ratio"),
    ("net.stream_miss_ratio", "ratio"),
    ("net.hops_per_msg", "ratio"),
    ("armci.build_s", "s"),
    ("armci.run_s", "s"),
    ("armci.credit_ns", "ns"),
    ("armci.cht_ns", "ns"),
    ("cht.fwd_per_op", "ratio"),
    ("cht.parked_per_fwd", "ratio"),
    ("cht.wakeups_per_service", "ratio"),
    ("cht.max_queue", "count"),
    ("credit_leaks", "count"),
    ("serve.admit_ratio", "ratio"),
    ("serve.goodput_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.guard_trips", "count"),
    ("recovery.retries", "count"),
    ("recovery.dedup_hits", "count"),
    ("recovery.corrupt_detected", "count"),
    ("repair.epoch_bumps", "count"),
    ("repair.rejoins", "count"),
    ("apps.draw_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Set-up is short next to a run; it is repeated at least this often (and
/// `CHEAP_SETUPS` times where it takes under a millisecond: the serve build
/// and the campaign draw) and the median taken. Cheap set-ups are also
/// sampled `CHEAP_SETUPS_PER_REP` times after every repetition, so that
/// their median spans the whole run as the run times' median does.
const MIN_SETUPS: usize = 5;
const CHEAP_SETUPS: usize = 101;
const CHEAP_SETUPS_PER_REP: usize = 20;

/// Simulated fingerprints pinned per recorded seed:
/// `workload seed fingerprint makespan_ns`.
const PINNED: &str = include_str!("../fingerprints.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A workload's generated inputs.
enum Inputs {
    Closed(Box<ClosedInputs>),
    Serve(vt_apps::ServeScenarioConfig),
    Faults(vt_apps::ChaosConfig),
}

impl Inputs {
    fn generate(w: Workload, seed: u64) -> Self {
        match w {
            Workload::Hotspot => Inputs::Closed(Box::new(ClosedInputs::hotspot(seed))),
            Workload::Uniform => Inputs::Closed(Box::new(ClosedInputs::uniform(seed))),
            Workload::Serve => Inputs::Serve(workloads::serve_scenario(seed)),
            Workload::Faults => Inputs::Faults(workloads::chaos_config(seed)),
        }
    }

    fn rep(&self, tr: &mut Tracer) -> (Rep, Option<Campaign>) {
        match self {
            Inputs::Closed(i) => (workloads::rep_closed(i, tr), None),
            Inputs::Serve(sc) => (workloads::rep_serve(sc, tr), None),
            Inputs::Faults(cfg) => {
                let (rep, cells, outcomes) = workloads::rep_faults(cfg, tr);
                (rep, Some(Campaign { cells, outcomes }))
            }
        }
    }

    /// Seconds to set up once without running.
    fn setup_only(&self) -> f64 {
        let t0 = Instant::now();
        match self {
            Inputs::Closed(i) => drop(std::hint::black_box(i.build())),
            Inputs::Serve(sc) => drop(std::hint::black_box(workloads::build_serve(sc))),
            Inputs::Faults(cfg) => {
                drop(std::hint::black_box(vt_apps::chaos::draw_cells(cfg)));
            }
        }
        t0.elapsed().as_secs_f64()
    }

    fn min_setups(&self) -> usize {
        match self {
            Inputs::Closed(_) => MIN_SETUPS,
            _ => CHEAP_SETUPS,
        }
    }

    fn setups_per_rep(&self) -> usize {
        match self {
            Inputs::Closed(_) => 0,
            _ => CHEAP_SETUPS_PER_REP,
        }
    }
}

struct Campaign {
    cells: Vec<vt_apps::chaos::ChaosCell>,
    outcomes: Vec<vt_apps::CellOutcome>,
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Looks up the pinned `(fingerprint, makespan_ns)` of a recorded seed.
fn pinned(w: Workload, seed: u64) -> Option<(u64, u64)> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [name, s, fp, ms] if *name == w.name() && s.parse() == Ok(seed) => {
                    Some((u64::from_str_radix(fp, 16).ok()?, ms.parse().ok()?))
                }
                _ => None,
            }
        })
}

/// Checks shared by both modes: every repetition correct, all repetitions
/// simulating the identical run, and the pinned fingerprint when recorded.
fn verdicts(w: Workload, seed: u64, reps: &[Rep]) -> Vec<String> {
    let mut v: Vec<String> = reps.iter().flat_map(|r| r.violations.clone()).collect();
    v.sort();
    v.dedup();
    let first = &reps[0];
    if reps
        .iter()
        .any(|r| (r.fingerprint, r.makespan_ns) != (first.fingerprint, first.makespan_ns))
    {
        v.push("replay divergence: repetitions simulated different runs".into());
    }
    if let Some((fp, ms)) = pinned(w, seed) {
        if (fp, ms) != (first.fingerprint, first.makespan_ns) {
            v.push(format!(
                "fingerprint {:016x} / makespan {} ns, pinned {fp:016x} / {ms} ns",
                first.fingerprint, first.makespan_ns
            ));
        }
    }
    v
}

fn print_checks(w: Workload, seed: u64, reps: &[Rep], verdicts: &[String]) {
    let r = &reps[0];
    let pin = if pinned(w, seed).is_some() {
        "pinned"
    } else {
        "not pinned"
    };
    println!(
        "fingerprint: {:016x} makespan_ns={} ({pin} for seed {seed})",
        r.fingerprint, r.makespan_ns
    );
    if verdicts.is_empty() {
        println!("check: ok over {} repetition(s)", reps.len());
    }
    for v in verdicts {
        println!("check FAILED: {v}");
    }
    if w == Workload::Faults {
        println!(
            "known defects: {} of {} cells violate registered oracles ({}); failed {} of {} ops",
            r.known_defect_cells,
            workloads::FAULT_CELLS,
            workloads::KNOWN_DEFECTS.join(", "),
            r.failed,
            r.attempted
        );
    }
    println!(
        "failed_share = {} ({} of {} ops)",
        ratio(r.failed, r.attempted),
        r.failed,
        r.attempted
    );
}

fn print_result(correct: bool, rep: &Rep, metrics: &[(&str, &str, f64)]) {
    for (name, unit, value) in metrics {
        println!("{name} = {value} {unit}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        rep.attempted, rep.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Repeats the workload while another repetition fits in `seconds` (at
/// least once), sampling cheap set-ups between repetitions, then tops up
/// set-up-only repetitions.
fn end_to_end(w: Workload, seed: u64, seconds: f64, inputs: &Inputs) {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let rep = inputs.rep(&mut Tracer::off()).0;
        setups.push(rep.setup_s);
        reps.push(rep);
        if reps.len() == 1 {
            // Later repetitions reuse a heap the first one fragmented, so
            // the peak after one run is the process's own footprint.
            peak_rss_mb = host::peak_rss_mb();
        }
        setups.extend((0..inputs.setups_per_rep()).map(|_| inputs.setup_only()));
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / reps.len() as f64 > seconds {
            break;
        }
    }
    while setups.len() < inputs.min_setups() {
        setups.push(inputs.setup_only());
    }
    let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let (lo, hi) = setups.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
        (lo.min(s), hi.max(s))
    });
    println!(
        "repetitions: run_s {runs:.4?}; {} set-ups, setup_s min {lo:.6} max {hi:.6}",
        setups.len()
    );
    let verdicts = verdicts(w, seed, &reps);
    print_checks(w, seed, &reps, &verdicts);
    let rep = &reps[0];
    let run_s = median(&runs);
    let metrics = [
        ("setup_s", "s", median(&setups)),
        ("ns_per_op", "ns", run_s * 1e9 / rep.attempted as f64),
        ("peak_rss_mb", "MB", peak_rss_mb),
        ("sim_makespan_us", "us", rep.makespan_ns as f64 / 1e3),
        ("ok_share", "ratio", 1.0 - ratio(rep.failed, rep.attempted)),
    ];
    assert!(metrics.iter().map(|m| (m.0, m.1)).eq(END_TO_END));
    print_result(verdicts.is_empty(), rep, &metrics);
}

/// The layer replays, then one traced repetition between two untraced ones.
fn per_layer(w: Workload, seed: u64, inputs: &Inputs) {
    let run_id = {
        let mut h = workloads::Fnv::default();
        let _ = write!(h, "{} {seed} {}", w.name(), std::process::id());
        h.0
    };
    let mut tr = Tracer::on(run_id);
    let shapes: Vec<replay::Traffic> = match inputs {
        Inputs::Closed(i) => vec![replay::Traffic::closed(i)],
        Inputs::Serve(sc) => vec![replay::Traffic::serve(sc)],
        Inputs::Faults(cfg) => vt_apps::chaos::draw_cells(cfg)
            .iter()
            .map(replay::Traffic::cell)
            .collect(),
    };
    // The network replay goes first, so its RSS growth is not hidden by
    // memory an earlier phase freed.
    let (send_ns, net_rss_mb) = replay::simnet_send(&shapes, &mut tr);
    let send_faulted_ns = replay::simnet_send_faulted(&shapes, &mut tr);
    let core_build_s = replay::core_build(&shapes, &mut tr);
    let next_hop_ns = replay::core_next_hop(&shapes, &mut tr);
    let credit_ns = replay::armci_credit(&shapes, &mut tr);
    let cht_ns = replay::armci_cht(&shapes, &mut tr);
    let concurrency = shapes.iter().map(|s| s.concurrency).sum::<usize>() / shapes.len().max(1);
    drop(shapes);

    // Untraced repetitions on both sides of the traced one, so the order in
    // which the process warms up does not read as tracing overhead.
    let (before, _) = inputs.rep(&mut Tracer::off());
    let (traced, campaign) = inputs.rep(&mut tr);
    let (after, _) = inputs.rep(&mut Tracer::off());
    let wall = |r: &Rep| r.setup_s + r.run_s;
    let untraced_s = (wall(&before) + wall(&after)) / 2.0;
    let overhead_s = wall(&traced) - untraced_s;
    let mut mismatches = Vec::new();
    let counts: Counts = match (&traced.counts, campaign) {
        (Some(c), _) => c.clone(),
        (None, Some(c)) => {
            let (counts, m) = replay::campaign_counts(&c.cells, &c.outcomes, &mut tr);
            mismatches = m;
            counts
        }
        (None, None) => Counts::default(),
    };
    let draw_s = match inputs {
        Inputs::Faults(_) => median(
            &(0..CHEAP_SETUPS)
                .map(|_| inputs.setup_only())
                .collect::<Vec<_>>(),
        ),
        _ => 0.0,
    };
    let attempted = traced.attempted;
    let (timer_share, timer) = match inputs {
        Inputs::Closed(_) => (0.0, vt_armci::SimTime::ZERO),
        Inputs::Serve(sc) => (
            ratio(counts.serve.admitted, counts.events),
            sc.runtime_config().retry.timeout,
        ),
        Inputs::Faults(_) => (
            ratio(attempted, counts.events),
            vt_armci::RetryConfig::default().timeout,
        ),
    };
    let runs = counts.runs.max(1) as f64;
    let mean_delay_ns = concurrency as f64 * (counts.makespan_ns as f64 / runs)
        / (counts.events as f64 / runs).max(1.0);
    let queue_ns = replay::simnet_queue(
        counts.events,
        concurrency,
        mean_delay_ns,
        timer_share,
        timer,
        &mut tr,
    );

    let reps = [before, traced, after];
    let mut verdicts = verdicts(w, seed, &reps);
    verdicts.extend(mismatches);
    print_checks(w, seed, &reps, &verdicts);

    let (n, c, s, f, r) = (
        &counts.net,
        &counts.cht,
        &counts.serve,
        &counts.faults,
        &counts.repair,
    );
    let metrics = [
        ("core.build_s", "s", core_build_s),
        ("core.next_hop_ns", "ns", next_hop_ns),
        ("simnet.events", "count", counts.events as f64),
        (
            "simnet.events_per_op",
            "ratio",
            ratio(counts.events, attempted),
        ),
        ("simnet.queue_ns", "ns", queue_ns),
        ("simnet.send_ns", "ns", send_ns),
        ("simnet.send_faulted_ns", "ns", send_faulted_ns),
        ("simnet.net_rss_mb", "MB", net_rss_mb),
        ("net.messages_per_op", "ratio", ratio(n.messages, attempted)),
        (
            "net.stream_miss_ratio",
            "ratio",
            ratio(n.stream_misses, n.messages),
        ),
        ("net.hops_per_msg", "ratio", ratio(n.hops, n.messages)),
        ("armci.build_s", "s", tr.total_s("armci.build")),
        ("armci.run_s", "s", tr.total_s("armci.run")),
        ("armci.credit_ns", "ns", credit_ns),
        ("armci.cht_ns", "ns", cht_ns),
        ("cht.fwd_per_op", "ratio", ratio(c.forwarded, attempted)),
        ("cht.parked_per_fwd", "ratio", ratio(c.parked, c.forwarded)),
        (
            "cht.wakeups_per_service",
            "ratio",
            ratio(c.wakeups, c.serviced + c.forwarded),
        ),
        ("cht.max_queue", "count", c.max_queue as f64),
        ("credit_leaks", "count", counts.credit_leaks as f64),
        ("serve.admit_ratio", "ratio", ratio(s.admitted, s.arrivals)),
        (
            "serve.goodput_ratio",
            "ratio",
            ratio(s.completed, s.admitted),
        ),
        ("serve.retries", "count", s.retries as f64),
        ("serve.guard_trips", "count", s.guard_trips as f64),
        ("recovery.retries", "count", f.retries as f64),
        ("recovery.dedup_hits", "count", f.dedup_hits as f64),
        (
            "recovery.corrupt_detected",
            "count",
            f.corrupt_detected as f64,
        ),
        ("repair.epoch_bumps", "count", r.epoch_bumps as f64),
        ("repair.rejoins", "count", r.rejoins_committed as f64),
        ("apps.draw_s", "s", draw_s),
        ("trace.overhead_s", "s", overhead_s),
    ];
    assert!(metrics.iter().map(|m| (m.0, m.1)).eq(PER_LAYER));

    println!("spans (name: spans, calls, total s, self s):");
    for (name, t) in tr.totals() {
        println!(
            "  {name}: {} spans, {} calls, {:.6} s, self {:.6} s",
            t.spans, t.calls, t.total_s, t.self_s
        );
    }
    println!(
        "tracing overhead: {overhead_s:.6} s (traced {:.6} s - untraced {untraced_s:.6} s)",
        wall(&reps[1])
    );
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("simbench-traces");
    let path = dir.join(format!("{}-{seed}.json", w.name()));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.chrome_json(w.name())))
    {
        Ok(()) => println!("trace: {} ({} spans)", path.display(), tr.spans().len()),
        Err(e) => println!("trace: not written to {}: {e}", path.display()),
    }
    print_result(verdicts.is_empty(), &reps[1], &metrics);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: simbench --workload <hotspot|uniform|serve|faults> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "simbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host::fingerprint());
    if !args.workload.recorded() {
        println!(
            "note: {} is not recorded in BENCHMARK.json",
            args.workload.name()
        );
    }
    let inputs = Inputs::generate(args.workload, args.seed);
    if args.trace {
        per_layer(args.workload, args.seed, &inputs);
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &inputs);
    }
    // An incorrect run still reports its measurements, flagged by
    // `"correct": false`.
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            let listed = json.contains(&format!("\"name\": \"{}\"", w.name()));
            assert_eq!(listed, w.recorded(), "workload {}", w.name());
        }
    }

    #[test]
    fn pinned_fingerprints_parse() {
        let lines: Vec<&str> = PINNED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .collect();
        assert!(!lines.is_empty());
        for line in lines {
            let f: Vec<&str> = line.split_whitespace().collect();
            let w = Workload::parse(f[0]).expect("known workload");
            let seed = f[1].parse().expect("numeric seed");
            assert!(pinned(w, seed).is_some(), "unparsable line {line}");
        }
    }

    #[test]
    fn a_pinned_seed_fails_when_its_fingerprint_moves() {
        let rep = |fingerprint, makespan_ns| Rep {
            fingerprint,
            makespan_ns,
            ..Rep::default()
        };
        let (fp, ms) = pinned(Workload::Uniform, 1).expect("seed 1 is pinned");
        assert!(verdicts(Workload::Uniform, 1, &[rep(fp, ms), rep(fp, ms)]).is_empty());
        assert_eq!(verdicts(Workload::Uniform, 1, &[rep(fp ^ 1, ms)]).len(), 1);
        assert_eq!(verdicts(Workload::Uniform, 1, &[rep(fp, ms + 1)]).len(), 1);
        assert_eq!(
            verdicts(Workload::Uniform, 1, &[rep(fp, ms), rep(fp ^ 1, ms)]).len(),
            1,
            "repetitions that diverge fail the run"
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
