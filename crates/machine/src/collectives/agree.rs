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
//! 2. **agreement** — survivors exchange their suspect lists pairwise
//!    until every survivor holds the union (`recover:agree`).
//!
//! On a healthy fabric the agreement round is a *real* pairwise
//! all-gather of suspect ids over the simulated network. Once the world
//! has aborted (a crash already fired), the fabric is poisoned — any
//! blocking receive would observe the abort — so the exchange is
//! charged arithmetically instead, standing in for the out-of-band
//! control plane a real runtime falls back to. Both branches charge the
//! same pairwise-exchange cost shape and are deterministic, so a recovery
//! outcome does not depend on when the abort reached a survivor.

use crate::collectives::TAG_AGREE;
use crate::comm::{Comm, HEARTBEAT_TIMEOUT_PROBES, RECOVER_AGREE_PHASE, RECOVER_DETECT_PHASE};
use crate::error::MachineError;

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
    /// caller phase, mirroring how `retry:*` traffic is isolated.
    /// Collective in the SPMD sense: every live member must call it.
    #[must_use = "the Result carries the agreed failure set or a transport failure"]
    pub fn try_agree_on_failures(
        &self,
        local_suspects: &[usize],
    ) -> Result<Vec<usize>, MachineError> {
        crate::metrics::AGREE.record(local_suspects.len());
        let p = self.size();
        let mut suspects: Vec<usize> = local_suspects.to_vec();
        suspects.extend(self.crashed_in_group());
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

        // Agreement: pairwise exchange of suspect lists.
        self.push_phase(RECOVER_AGREE_PHASE);
        let result = if self.world_aborted() {
            // The fabric is poisoned by the abort: charge the exchange
            // arithmetically among the survivors (the out-of-band
            // control plane), never touching the dead network. The
            // registry already holds every crash, so the union is known.
            let w = suspects.len().max(1);
            let dead_here = suspects.iter().filter(|&&s| s < p).count();
            let live = p.saturating_sub(dead_here).max(1);
            self.with_cost(|c, m| {
                for _ in 1..live {
                    c.on_exchange(w, w, 0.0, m);
                }
            });
            Ok(suspects)
        } else {
            self.exchange_suspects(suspects)
        };
        self.pop_phase();
        result
    }

    /// Healthy-fabric agreement round: a real pairwise all-gather of
    /// suspect ids over the network, unioned at each member.
    fn exchange_suspects(&self, suspects: Vec<usize>) -> Result<Vec<usize>, MachineError> {
        let p = self.size();
        let me = self.rank();
        let mine: Vec<u64> = suspects.iter().map(|&s| s as u64).collect();
        let mut agreed = suspects;
        for step in 1..p {
            let dst = (me + step) % p;
            let src = (me + p - step) % p;
            let theirs: Vec<u64> = self.try_exchange(dst, mine.clone(), src, TAG_AGREE)?;
            agreed.extend(theirs.iter().map(|&s| s as usize));
        }
        agreed.sort_unstable();
        agreed.dedup();
        Ok(agreed)
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{RECOVER_AGREE_PHASE, RECOVER_DETECT_PHASE};
    use crate::machine::Machine;

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
        // P − 1 times per rank. Both isolated in recover:* phases.
        for r in 0..p {
            let det = out.cost.phase_cost(r, RECOVER_DETECT_PHASE).unwrap();
            assert_eq!(det.msgs_sent, 1);
            assert_eq!(det.words_sent, 1);
            let agr = out.cost.phase_cost(r, RECOVER_AGREE_PHASE).unwrap();
            assert_eq!(agr.msgs_sent as usize, p - 1);
        }
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
