//! The one construction driver behind §3 and both §5 adversaries.
//!
//! The paper's lower-bound adversaries are one mechanism: between scheduling
//! and acceptance of every step, find each packet about to cross a protected
//! column or row it is too high a class for, and exchange its destination with
//! that of an eligible partner. Everything that mechanism needs is here, once:
//! the `Sim` and its [`ClassMap`], the per-step schedule index, the
//! re-evaluate-until-clean loop over the moves and the fixpoint around it, the
//! partner search, the optional per-step lemma check and the
//! [`ConstructionOutcome`]. What the paper gives each construction separately
//! — placement, classes, boxes, which move violates what and which partner
//! repairs it — is an [`ExchangeRule`].

use crate::classify::{Class, ClassMap};
use crate::invariants::InvariantChecker;
use mesh_engine::{HookCtx, Loc, PolicyCalls, Router, ScheduledMove, Sim, StepHook};
use mesh_topo::{Coord, Topology};
use mesh_traffic::{PacketId, RoutingProblem};

/// Everything a construction produces.
pub struct ConstructionOutcome {
    /// The constructed (partial) permutation — the paper's hard instance.
    pub constructed: RoutingProblem,
    /// Exact per-packet configuration after `⌊l⌋·dn` construction steps,
    /// for the Lemma 12 replay-equivalence check.
    pub final_snapshot: Vec<(Loc, Coord, u64)>,
    /// Destination exchanges performed.
    pub exchanges: u64,
    /// Packets still undelivered at the bound (Corollary 9 demands > 0).
    pub undelivered_at_bound: usize,
    /// The proven bound `⌊l⌋·dn`.
    pub bound_steps: u64,
}

/// The construction could not continue: a violating move had no eligible
/// partner. Against a minimal victim within §4.3's budget Lemmas 3/4 rule
/// this out, so it is a construction bug; against a nonminimal victim (E11,
/// E12) it is the expected way for the adversary to lose its grip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstructionBreakdown {
    /// The 1-based step whose schedule could not be repaired.
    pub step: u64,
    /// The class no eligible partner held.
    pub wanted: Class,
}

impl std::fmt::Display for ConstructionBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no eligible exchange partner of class {:?} at step {} — \
             Lemma 3/4 violated (construction bug)",
            self.wanted, self.step
        )
    }
}

impl std::error::Error for ConstructionBreakdown {}

/// The partner a violating move must be exchanged with.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    /// The class the partner must hold.
    pub class: Class,
    /// The partner must sit in this box…
    pub in_box: u32,
    /// …and must not itself be scheduled to enter this protected line
    /// (`N(i)`: the N_i-column, `E(i)`: the E_i-row).
    pub line: Class,
}

/// Which eligible partner repairs a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartnerChoice {
    /// The first member of the class that is not scheduled at all — it cannot
    /// cascade into a further violation this step — else the first that is
    /// not entering the protected line (the paper's exact eligibility).
    FirstIdle,
    /// The westernmost eligible member — the southernmost of those, and the
    /// earliest in membership order among packets sharing that node: §5's
    /// farthest-first rule.
    Westernmost,
}

/// What the paper states separately for each construction.
pub trait ExchangeRule {
    /// How a partner is picked among the eligible.
    const PARTNER: PartnerChoice = PartnerChoice::FirstIdle;

    /// The proven bound `⌊l⌋·dn`: how many steps the adversary runs.
    fn bound_steps(&self) -> u64;
    /// Step 1: the initial placement.
    fn initial_problem(&self) -> RoutingProblem;
    /// The class of a construction destination (`None` for other coords).
    fn classify_dst(&self, d: Coord) -> Option<Class>;
    /// True if `c` is in the i-box.
    fn in_box(&self, c: Coord, i: u32) -> bool;
    /// True if `m` enters the protected part of `line` (`N(i)`: the
    /// N_i-column, `E(i)`: the E_i-row).
    fn enters(&self, m: &ScheduledMove, line: Class) -> bool;
    /// The exchange rule: the partner demanded if move `m` of a packet
    /// currently of class `cls` may not happen at step `t`.
    fn violation(&self, t: u64, m: &ScheduledMove, cls: Class) -> Option<Demand>;
    /// Label of the constructed problem.
    fn constructed_label(&self) -> String;
}

/// Marks a packet with no scheduled move in [`Exchanger::move_of`].
const UNSCHEDULED: u32 = u32::MAX;

/// The per-step adversary: the only [`StepHook`] of this crate.
struct Exchanger<'r, X> {
    rule: &'r X,
    classes: ClassMap,
    /// `PacketId →` index of its one move in this step's schedule (the route
    /// phase asserts one outlink per packet), or [`UNSCHEDULED`].
    move_of: Vec<u32>,
    breakdown: Option<ConstructionBreakdown>,
}

impl<X: ExchangeRule> Exchanger<'_, X> {
    fn find_partner(&self, ctx: &HookCtx<'_>, d: Demand) -> Option<PacketId> {
        let scheduled = |cand: PacketId| {
            let mi = self.move_of[cand.index()];
            (mi != UNSCHEDULED).then(|| &ctx.moves[mi as usize])
        };
        let node_in_box =
            |cand: PacketId| ctx.node_of(cand).filter(|&c| self.rule.in_box(c, d.in_box));
        let entering =
            |cand: PacketId| scheduled(cand).is_some_and(|m| self.rule.enters(m, d.line));
        let members = || self.classes.members(d.class).iter().copied();
        match X::PARTNER {
            PartnerChoice::FirstIdle => members()
                .find(|&cand| scheduled(cand).is_none() && node_in_box(cand).is_some())
                .or_else(|| members().find(|&cand| node_in_box(cand).is_some() && !entering(cand))),
            // `min_by_key` keeps the first of equal minima: membership order.
            PartnerChoice::Westernmost => members()
                .filter(|&cand| !entering(cand))
                .filter_map(|cand| node_in_box(cand).map(|c| ((c.x, c.y), cand)))
                .min_by_key(|&(at, _)| at)
                .map(|(_, cand)| cand),
        }
    }
}

impl<X: ExchangeRule> StepHook for Exchanger<'_, X> {
    fn on_scheduled(&mut self, ctx: &mut HookCtx<'_>) {
        if self.breakdown.is_some() {
            return;
        }
        self.move_of.fill(UNSCHEDULED);
        for (mi, m) in ctx.moves.iter().enumerate() {
            debug_assert_eq!(self.move_of[m.pkt().index()], UNSCHEDULED);
            self.move_of[m.pkt().index()] = mi as u32;
        }
        // Exchanging with a partner that is itself scheduled can create a new
        // violation on an earlier move, so iterate the whole schedule to a
        // fixpoint.
        let mut passes = 0;
        loop {
            let before = ctx.exchange_count();
            for mi in 0..ctx.moves.len() {
                let m = ctx.moves[mi];
                // A move may trip a column rule and a row rule (corner
                // targets): re-evaluate it with its new class after each
                // exchange until it is clean.
                while let Some(d) = self
                    .classes
                    .class_of(m.pkt())
                    .and_then(|cls| self.rule.violation(ctx.t, &m, cls))
                {
                    let Some(partner) = self.find_partner(ctx, d) else {
                        self.breakdown = Some(ConstructionBreakdown {
                            step: ctx.t,
                            wanted: d.class,
                        });
                        return;
                    };
                    ctx.exchange(m.pkt(), partner);
                    self.classes.record_exchange(m.pkt(), partner);
                }
            }
            if ctx.exchange_count() == before {
                break;
            }
            passes += 1;
            assert!(passes < 64, "exchange fixpoint did not converge");
        }
    }
}

/// Runs `rule`'s construction against `router` for its `bound_steps`: the
/// placement, then every step under the exchange hook, then the constructed
/// permutation read off the packets' current destinations.
///
/// With a `checker`, Lemmas 1–8 are machine-verified after every step (a
/// panic means either the construction or the engine is wrong — never the
/// router).
pub(crate) fn construct<T: Topology, R: Router, X: ExchangeRule>(
    rule: &X,
    topo: &T,
    router: R,
    checker: Option<InvariantChecker>,
) -> Result<ConstructionOutcome, ConstructionBreakdown> {
    construct_counted(rule, topo, router, checker).0
}

/// [`construct`], with the policy calls its `Sim` made and skipped.
pub(crate) fn construct_counted<T: Topology, R: Router, X: ExchangeRule>(
    rule: &X,
    topo: &T,
    router: R,
    mut checker: Option<InvariantChecker>,
) -> (
    Result<ConstructionOutcome, ConstructionBreakdown>,
    PolicyCalls,
) {
    let pb = rule.initial_problem();
    assert_eq!(topo.side(), pb.n);
    let mut sim = Sim::new(topo, router, &pb);
    let classes = {
        let dsts: Vec<Coord> = pb.packets.iter().map(|p| p.dst).collect();
        ClassMap::new(&dsts, |d| rule.classify_dst(d))
    };
    let mut hook = Exchanger {
        rule,
        classes,
        move_of: vec![UNSCHEDULED; pb.len()],
        breakdown: None,
    };
    let bound = rule.bound_steps();
    for t in 1..=bound {
        sim.step_with_hook(&mut hook);
        if let Some(breakdown) = hook.breakdown {
            return (Err(breakdown), sim.policy_calls());
        }
        if let Some(ch) = checker.as_mut() {
            ch.check_after_step(t, &hook.classes, |p| sim.loc(p))
                .unwrap_or_else(|e| panic!("invariant violated at step {t}: {e}"));
        }
    }
    let outcome = ConstructionOutcome {
        constructed: sim.current_problem(rule.constructed_label()),
        final_snapshot: sim.packet_snapshot(),
        exchanges: sim.report().exchanges,
        undelivered_at_bound: sim.num_packets() - sim.delivered(),
        bound_steps: bound,
    };
    (Ok(outcome), sim.policy_calls())
}
