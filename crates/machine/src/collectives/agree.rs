//! Fault-tolerant agreement on the set of failed ranks.
//!
//! After a rank crash the survivors of a run must converge on *who*
//! died before the world can be shrunk and the computation replanned.
//! [`Comm::try_agree_on_failures`] models the two-step protocol a real
//! fault-tolerant runtime (ULFM-style `MPI_Comm_agree`) performs:
//!
//! 1. **detection** — each survivor probes its suspect links with
//!    heartbeats and charges the timeout window it waits before
//!    declaring the peer dead (`recover:detect`), and
//! 2. **agreement** — a dissemination OR-all-reduce of the suspect
//!    lists (`recover:agree`): in round `k = 0, 1, …, ⌈log₂ P′⌉ − 1`
//!    every rank sends its sorted union to `me + 2ᵏ`, receives one from
//!    `me − 2ᵏ` (mod `P′`) and merges. Union is idempotent, so a rank
//!    heard twice costs nothing and any `P′` works without a
//!    power-of-two fold. With `f` agreed ids each rank moves at most
//!    `f·⌈log₂ P′⌉` words in exactly `⌈log₂ P′⌉` messages, so the
//!    agreement shrinks against Theorem 1's bound instead of growing
//!    like `P′` as a pairwise all-gather would.
//!
//! On a healthy fabric the rounds are *real* exchanges over the
//! simulated network. Once the world has aborted (a crash already
//! fired), the fabric is poisoned — any blocking receive would observe
//! the abort — so the agreement is charged arithmetically instead,
//! standing in for the out-of-band control plane a real runtime falls
//! back to: `⌈log₂ live⌉` exchanges of the agreed set's size, what the
//! healthy branch sends when every rank already holds that set. Both
//! branches charge the same cost shape and are deterministic, so a
//! recovery outcome does not depend on when the abort reached a
//! survivor.

use crate::collectives::TAG_AGREE;
use crate::comm::{Comm, HEARTBEAT_TIMEOUT_PROBES, RECOVER_AGREE_PHASE, RECOVER_DETECT_PHASE};
use crate::error::MachineError;

/// `⌈log₂ n⌉`, the dissemination rounds among `n` ranks (0 for one).
fn rounds(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

impl Comm {
    /// Agree with the other members of this communicator on the set of
    /// failed ranks.
    ///
    /// `local_suspects` are failure ids this rank suspects on its own
    /// (they may name ranks of a *previous, larger* world during a
    /// shrink-and-replan recovery, so they are not bounds-checked
    /// against this communicator). The crash registry of the current
    /// world — ranks actually killed by the fault plan — is always
    /// merged in. Returns the agreed, sorted, deduplicated union held
    /// by every caller.
    ///
    /// Detection and agreement costs are charged under the
    /// `recover:detect` / `recover:agree` phases regardless of any open
    /// caller phase, mirroring how `retry:*` traffic is isolated. The
    /// agreement is `⌈log₂ P′⌉` dissemination rounds on a healthy
    /// fabric; after an abort it charges `⌈log₂ live⌉` exchanges of the
    /// agreed set's size, `live` being this communicator's members the
    /// crash registry has not killed.
    /// Collective in the SPMD sense: every live member must call it.
    #[must_use = "the Result carries the agreed failure set or a transport failure"]
    pub fn try_agree_on_failures(
        &self,
        local_suspects: &[usize],
    ) -> Result<Vec<usize>, MachineError> {
        crate::metrics::AGREE.record(local_suspects.len());
        let crashed = self.crashed_in_group();
        let live = self.size() - crashed.len();
        let mut suspects: Vec<usize> = local_suspects.to_vec();
        suspects.extend(crashed);
        suspects.sort_unstable();
        suspects.dedup();

        // Detection: one unanswered heartbeat probe per suspect link,
        // plus the timeout window waited before declaring it dead.
        if !suspects.is_empty() {
            self.push_phase(RECOVER_DETECT_PHASE);
            for _ in &suspects {
                self.with_cost(|c, m| {
                    c.on_send(1, m);
                    c.clock += HEARTBEAT_TIMEOUT_PROBES as f64 * m.message(1);
                });
            }
            self.pop_phase();
        }

        self.push_phase(RECOVER_AGREE_PHASE);
        let result = if self.world_aborted() {
            // The fabric is poisoned by the abort: charge the rounds
            // arithmetically among the survivors (the out-of-band
            // control plane), never touching the dead network. The
            // registry already holds every crash, so the union is known.
            let w = suspects.len().max(1);
            self.with_cost(|c, m| {
                for _ in 0..rounds(live) {
                    c.on_exchange(w, w, 0.0, m);
                }
            });
            Ok(suspects)
        } else {
            self.disseminate(suspects)
        };
        self.pop_phase();
        result
    }

    /// The dissemination OR-all-reduce of sorted id lists: after round
    /// `k` a rank holds the union of itself and the `2ᵏ⁺¹ − 1` ranks
    /// behind it, so `⌈log₂ P′⌉` rounds reach everyone.
    fn disseminate(&self, mut agreed: Vec<usize>) -> Result<Vec<usize>, MachineError> {
        let (p, me) = (self.size(), self.rank());
        let mut dist = 1;
        while dist < p {
            let (dst, src) = ((me + dist) % p, (me + p - dist) % p);
            let theirs: Vec<usize> = self.try_exchange(dst, agreed.clone(), src, TAG_AGREE)?;
            agreed.extend(theirs);
            agreed.sort_unstable();
            agreed.dedup();
            dist <<= 1;
        }
        Ok(agreed)
    }
}

#[cfg(test)]
mod tests {
    use super::rounds;
    use crate::comm::{RECOVER_AGREE_PHASE, RECOVER_DETECT_PHASE};
    use crate::fault::{mix64, FaultPlan};
    use crate::machine::Machine;
    use crate::{CostModel, MachineError};
    use std::sync::Mutex;

    #[test]
    fn healthy_world_agrees_on_union_of_suspects() {
        let p = 4usize;
        let out = Machine::new(p)
            .try_run(|comm| {
                // Each rank suspects a different id; all must converge.
                comm.try_agree_on_failures(&[10 + comm.rank()])
            })
            .unwrap();
        for agreed in &out.results {
            assert_eq!(agreed, &vec![10, 11, 12, 13]);
        }
        // Detection probed one suspect per rank; agreement exchanged
        // ⌈log₂ P⌉ times per rank. Both isolated in recover:* phases.
        for r in 0..p {
            let det = out.cost.phase_cost(r, RECOVER_DETECT_PHASE).unwrap();
            assert_eq!(det.msgs_sent, 1);
            assert_eq!(det.words_sent, 1);
            let agr = out.cost.phase_cost(r, RECOVER_AGREE_PHASE).unwrap();
            assert_eq!(agr.msgs_sent, 2);
        }
    }

    /// Rank `r`'s suspect list of one kind, seeded by `(p, kind, r)`:
    /// unsorted and with repeats, so callers' lists need no order.
    fn suspects_of(p: usize, kind: usize, r: usize) -> Vec<usize> {
        let seed = ((p * 4 + kind) * 1024 + r) as u64;
        let z = |i: usize| mix64(seed ^ ((i as u64) << 32)) as usize;
        let len = z(0) % 4;
        match kind {
            // Nobody suspects anyone.
            0 => Vec::new(),
            // Disjoint: ids of rank r's own residue class mod P′.
            1 => (0..len).map(|i| r + p * (z(i + 1) % 3)).collect(),
            // Overlapping: a few ids of a small shared range.
            2 => (0..len).map(|i| z(i + 1) % 8).collect(),
            // Old-world ids, at or beyond P′, mixed with current ones.
            _ => (0..len).map(|i| z(i + 1) % (2 * p + 4)).collect(),
        }
    }

    #[test]
    fn every_rank_agrees_on_the_union_in_ceil_log2_rounds() {
        let sizes = (1..=33).chain([127, 128, 129, 180]);
        for p in sizes {
            for kind in 0..4 {
                let mut want: Vec<usize> = (0..p).flat_map(|r| suspects_of(p, kind, r)).collect();
                want.sort_unstable();
                want.dedup();
                let out = Machine::new(p)
                    .try_run(|comm| comm.try_agree_on_failures(&suspects_of(p, kind, comm.rank())))
                    .unwrap();
                for (r, agreed) in out.results.iter().enumerate() {
                    assert_eq!(agreed, &want, "P′ = {p}, kind {kind}, rank {r}");
                    let msgs = out
                        .cost
                        .phase_cost(r, RECOVER_AGREE_PHASE)
                        .map_or(0, |c| c.msgs_sent);
                    assert_eq!(
                        msgs,
                        u64::from(rounds(p)),
                        "P′ = {p}, kind {kind}, rank {r}"
                    );
                }
            }
        }
    }

    /// A survivor that names an old-world id below `P` still counts the
    /// survivors from the crash registry, not from its own suspects.
    #[test]
    fn poisoned_fabric_charges_by_the_crash_registry() {
        let charged: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let err = Machine::new(4)
            .with_model(CostModel::bandwidth_only())
            .with_faults(FaultPlan::seeded(9).crash_rank(1, 1))
            .try_run(|comm| match comm.try_all_gather(vec![1.0; 2]) {
                Ok(_) => Ok(()),
                Err(MachineError::RankCrashed { .. }) if comm.rank() != 1 => {
                    // Detection only sends: received messages are the
                    // agreement's exchanges.
                    let before = comm.with_cost(|c, _| c.msgs_recv);
                    let old_id: &[usize] = if comm.rank() == 2 { &[0] } else { &[] };
                    comm.try_agree_on_failures(old_id)?;
                    let exchanges = comm.with_cost(|c, _| c.msgs_recv) - before;
                    (charged.lock().unwrap_or_else(|p| p.into_inner()))
                        .push((comm.rank(), exchanges));
                    Ok(())
                }
                Err(e) => Err(e),
            })
            .expect_err("the crash is the run's first failure");
        assert!(
            matches!(err, MachineError::RankCrashed { rank: 1, .. }),
            "{err}"
        );
        let mut got = charged.into_inner().unwrap_or_else(|p| p.into_inner());
        got.sort_unstable();
        // Three survivors: ⌈log₂ 3⌉ = 2 exchanges each, old id or not.
        assert_eq!(got, [(0, 2), (2, 2), (3, 2)]);
    }

    #[test]
    fn empty_suspicion_agrees_on_empty_set() {
        let out = Machine::new(3)
            .try_run(|comm| comm.try_agree_on_failures(&[]))
            .unwrap();
        for agreed in &out.results {
            assert!(agreed.is_empty());
        }
    }

    #[test]
    fn single_rank_agrees_with_itself() {
        let out = Machine::new(1)
            .try_run(|comm| comm.try_agree_on_failures(&[7]))
            .unwrap();
        assert_eq!(out.results[0], vec![7]);
    }
}
