//! The network's traffic counters, pinned at the public API: random mixes
//! of single messages, coalesced envelopes and heartbeat probes (local and
//! remote) go through networks with random fault plans drawing every fault
//! class, and every counter must equal the tally of the outcomes the sends
//! returned.

use proptest::prelude::*;
use vt_simnet::{
    Delivery, DetRng, DropReason, FaultPlan, Network, NetworkConfig, SendOutcome, SimTime,
};

const NODES: u32 = 24;
/// Torus slots under the pinned 4 x 4 x 2 geometry.
const SLOTS: u64 = 32;
const HORIZON_NS: u64 = 200_000;

fn config(fault_seed: u64) -> NetworkConfig {
    NetworkConfig {
        torus_dims: Some([4, 4, 2]),
        fault_seed,
        ..NetworkConfig::default()
    }
}

/// Both shapes a send can return: a bare delivery or a full outcome. Older
/// revisions returned a bare `Delivery` from `send` and `send_envelope`;
/// accepting both lets these rules be checked against them unchanged.
trait IntoOutcome {
    fn outcome(self) -> SendOutcome;
}

impl IntoOutcome for SendOutcome {
    fn outcome(self) -> SendOutcome {
        self
    }
}

impl IntoOutcome for Delivery {
    fn outcome(self) -> SendOutcome {
        SendOutcome::Delivered(self)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Single,
    Envelope { members: u32 },
    Probe,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Sent {
    kind: Kind,
    local: bool,
    out: SendOutcome,
}

fn at_ns(rng: &mut DetRng, below: u64) -> SimTime {
    SimTime::from_nanos(rng.u64_below(below))
}

/// A plan holding every fault class: crashes (some rebooting), failed and
/// degraded links, a partition, a drop window and a corrupt window.
fn draw_plan(rng: &mut DetRng) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut crashed = Vec::new();
    for _ in 0..1 + rng.index(2) {
        let node = rng.u64_below(u64::from(NODES)) as u32;
        if crashed.contains(&node) {
            continue;
        }
        crashed.push(node);
        let at = at_ns(rng, HORIZON_NS);
        plan = plan.crash_node(at, node);
        if rng.index(2) == 0 {
            plan = plan.restart_node(
                at + SimTime::from_nanos(1 + rng.u64_below(HORIZON_NS / 2)),
                node,
            );
        }
    }
    for _ in 0..1 + rng.index(3) {
        let (slot, dir) = (rng.u64_below(SLOTS) as u32, rng.index(6) as u8);
        let at = at_ns(rng, HORIZON_NS);
        let until =
            (rng.index(4) > 0).then(|| at + SimTime::from_nanos(1 + rng.u64_below(HORIZON_NS)));
        plan = plan.fail_link(slot, dir, at, until);
    }
    for _ in 0..1 + rng.index(3) {
        let (slot, dir) = (rng.u64_below(SLOTS) as u32, rng.index(6) as u8);
        let at = at_ns(rng, HORIZON_NS);
        let until =
            (rng.index(4) > 0).then(|| at + SimTime::from_nanos(1 + rng.u64_below(HORIZON_NS)));
        plan = plan.degrade_link(slot, dir, at, until, rng.f64_range(1.0, 8.0));
    }
    let cut = (0..1 + rng.index(4))
        .map(|_| {
            let a = rng.u64_below(u64::from(NODES)) as u32;
            (
                a,
                (a + 1 + rng.u64_below(u64::from(NODES) - 1) as u32) % NODES,
            )
        })
        .collect();
    let window = |rng: &mut DetRng| {
        let from = at_ns(rng, HORIZON_NS);
        (
            from,
            from + SimTime::from_nanos(1 + rng.u64_below(HORIZON_NS)),
        )
    };
    let (from, until) = window(rng);
    plan = plan.partition(from, until, cut);
    let (from, until) = window(rng);
    plan = plan.drop_window(from, until, rng.f64());
    let (from, until) = window(rng);
    plan.corrupt_window(from, until, rng.f64())
}

/// Drives `frames` random frames through `net`, local and remote, spread
/// over the plan's horizon.
fn drive(net: &mut Network, rng: &mut DetRng, frames: usize) -> Vec<Sent> {
    let mut now = SimTime::ZERO;
    (0..frames)
        .map(|_| {
            now += at_ns(rng, 2 * HORIZON_NS / frames as u64);
            let src = rng.u64_below(u64::from(NODES)) as u32;
            let local = rng.index(8) == 0;
            let dst = if local {
                src
            } else {
                (src + 1 + rng.u64_below(u64::from(NODES) - 1) as u32) % NODES
            };
            let bytes = 8 + rng.u64_below(16_384);
            let (kind, out) = match rng.index(3) {
                0 => (Kind::Single, net.send(now, src, dst, bytes).outcome()),
                1 if !local => {
                    let members = 2 + rng.index(5) as u32;
                    let out = net.send_envelope(now, src, dst, u64::from(members) * 160, members);
                    (Kind::Envelope { members }, out.outcome())
                }
                _ => (Kind::Probe, net.send_probe(now, src, dst, bytes)),
            };
            Sent { kind, local, out }
        })
        .collect()
}

/// Every counter equals its tally over the returned outcomes.
fn assert_counting_rules(net: &Network, sent: &[Sent]) {
    let c = net.counters();
    let dropped = |s: &&Sent| matches!(s.out, SendOutcome::Dropped { .. });
    // Frames that reached the sender's NIC: remote deliveries plus losses
    // on the wire or at the destination, but not refusals at the source.
    let on_wire = |s: &&Sent| match s.out {
        SendOutcome::Delivered(_) => !s.local,
        SendOutcome::Dropped { reason, .. } => matches!(
            reason,
            DropReason::LinkDown | DropReason::DestDead | DropReason::Transient
        ),
    };
    let count = |f: &dyn Fn(&&Sent) -> bool| sent.iter().filter(f).count() as u64;
    assert_eq!(c.dropped, count(&dropped));
    assert_eq!(c.messages, count(&on_wire));
    assert_eq!(
        c.local_messages,
        count(&|s| s.local && !dropped(s)),
        "local deliveries"
    );
    let envelopes: Vec<u32> = sent
        .iter()
        .filter(on_wire)
        .filter_map(|s| match s.kind {
            Kind::Envelope { members } => Some(members),
            _ => None,
        })
        .collect();
    assert_eq!(c.envelopes, envelopes.len() as u64);
    assert_eq!(
        c.coalesced_requests,
        envelopes.iter().map(|&m| u64::from(m)).sum::<u64>()
    );
    assert_eq!(c.probes, count(&|s| s.kind == Kind::Probe));
    assert_eq!(
        c.corrupted,
        count(&|s| matches!(s.out, SendOutcome::Delivered(d) if d.corrupt))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under a plan drawing every fault class, each counter follows its
    /// documented rule.
    #[test]
    fn counters_follow_their_rules_under_any_plan(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        frames in 1usize..240,
    ) {
        let mut rng = DetRng::new(seed);
        let plan = draw_plan(&mut rng);
        prop_assert!(plan.validate().is_ok(), "{plan:?}");
        let mut net = Network::with_faults(config(fault_seed), NODES, &plan);
        let sent = drive(&mut net, &mut rng, frames);
        assert_counting_rules(&net, &sent);
    }

    /// Without a plan, or with the empty one, nothing is dropped or
    /// corrupt, and the empty plan changes no outcome.
    #[test]
    fn no_plan_drops_and_corrupts_nothing(seed in any::<u64>(), frames in 1usize..240) {
        let mut plain = Network::new(config(0), NODES);
        let mut empty = Network::with_faults(config(0), NODES, &FaultPlan::new());
        let a = drive(&mut plain, &mut DetRng::new(seed), frames);
        let b = drive(&mut empty, &mut DetRng::new(seed), frames);
        assert_counting_rules(&plain, &a);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(plain.counters(), empty.counters());
        prop_assert_eq!(plain.counters().dropped, 0);
        prop_assert_eq!(plain.counters().corrupted, 0);
    }
}

/// The draws above are strong enough to matter: over a fixed batch of
/// seeds, every drop reason and corruption occur.
#[test]
fn the_mix_reaches_every_fault_class() {
    let mut reasons = Vec::new();
    let mut corrupt = 0;
    for seed in 0..64 {
        let mut rng = DetRng::new(seed);
        let plan = draw_plan(&mut rng);
        let mut net = Network::with_faults(config(seed), NODES, &plan);
        for s in drive(&mut net, &mut rng, 200) {
            match s.out {
                SendOutcome::Dropped { reason, .. } if !reasons.contains(&reason) => {
                    reasons.push(reason)
                }
                SendOutcome::Delivered(d) if d.corrupt => corrupt += 1,
                _ => {}
            }
        }
    }
    assert_eq!(reasons.len(), 5, "drop reasons seen: {reasons:?}");
    assert!(corrupt > 0);
}
