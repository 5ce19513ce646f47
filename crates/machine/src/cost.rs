//! Cost accounting for the simulated machine.
//!
//! The paper (§3.2) uses the α-β-γ model: a message of `w` words costs
//! `α + β·w`, and each arithmetic operation costs `γ`. The quantity bounded
//! by Theorem 1 is the *bandwidth cost along the critical path*, i.e. the
//! maximum over processors of the number of words it sends (equivalently
//! receives, for the symmetric collectives used here).
//!
//! Every rank carries a [`RankCost`]: monotone counters for words/messages
//! sent and received and flops performed, plus a scalar *clock* that models
//! elapsed time under the α-β-γ model. The clock advances on every
//! communication event; on a receive it is joined (`max`) with the sender's
//! clock at send time, so the final per-rank clock is a valid critical-path
//! time for the run.
//!
//! On top of the machine-wide totals, every rank keeps a **per-phase
//! breakdown**: algorithms name their phases through the span API on
//! [`Comm`](crate::Comm) (`push_phase` / `phase`), and every cost delta is
//! attributed to the innermost active phase (or [`UNTAGGED_PHASE`] when
//! none is active). Theorem 1's bounds decompose into per-array, per-phase
//! terms — e.g. the 2D algorithm's `n1·n2/√P` allgather-of-A term vs. the
//! 1D algorithm's `n1(n1−1)/2` output-reduction term — and the breakdown
//! (surfaced by [`CostReport::phase_table`]) is what lets a measured run
//! be compared against those terms one by one.

use std::fmt;

/// Parameters of the α-β-γ machine model.
///
/// * `alpha` — per-message latency cost,
/// * `beta`  — per-word bandwidth cost,
/// * `gamma` — per-flop arithmetic cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency cost.
    pub alpha: f64,
    /// Per-word bandwidth cost.
    pub beta: f64,
    /// Per-flop arithmetic cost.
    pub gamma: f64,
}

impl CostModel {
    /// A model that only charges bandwidth (β = 1). Useful when comparing
    /// measured word counts against the paper's bandwidth lower bounds.
    pub fn bandwidth_only() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
        }
    }

    /// A model with typical relative magnitudes (α ≫ β ≫ γ) for
    /// latency-vs-bandwidth trade-off experiments (§6 of the paper).
    pub fn typical() -> Self {
        CostModel {
            alpha: 1e-6,
            beta: 1e-9,
            gamma: 1e-12,
        }
    }

    /// Cost of a single message of `w` words under this model.
    pub fn message(&self, w: usize) -> f64 {
        self.alpha + self.beta * w as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::bandwidth_only()
    }
}

/// Monotone cost counters plus the α-β-γ clock for a single rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankCost {
    /// Number of point-to-point messages this rank sent.
    pub msgs_sent: u64,
    /// Number of point-to-point messages this rank received.
    pub msgs_recv: u64,
    /// Total words this rank sent.
    pub words_sent: u64,
    /// Total words this rank received.
    pub words_recv: u64,
    /// Total floating-point operations this rank performed.
    pub flops: u64,
    /// α-β-γ clock: a critical-path elapsed time for this rank.
    pub clock: f64,
    /// High-water mark of words simultaneously buffered by collectives on
    /// this rank (a proxy for the extra memory footprint of an algorithm).
    pub peak_buffer_words: u64,
}

impl RankCost {
    /// Record a send of one message with `w` words, advancing the clock.
    pub(crate) fn on_send(&mut self, w: usize, model: &CostModel) {
        self.msgs_sent += 1;
        self.words_sent += w as u64;
        self.clock += model.message(w);
    }

    /// Record a receive of one message with `w` words that the sender
    /// dispatched at time `sender_ready`.
    pub(crate) fn on_recv(&mut self, w: usize, sender_ready: f64, model: &CostModel) {
        self.msgs_recv += 1;
        self.words_recv += w as u64;
        self.clock = self.clock.max(sender_ready) + model.message(w);
    }

    /// Record a simultaneous exchange: `w_out` words sent while `w_in` words
    /// are received (bidirectional links, §3.2 — the step costs
    /// `α + β·max(w_out, w_in)`).
    pub(crate) fn on_exchange(
        &mut self,
        w_out: usize,
        w_in: usize,
        partner_ready: f64,
        model: &CostModel,
    ) {
        self.msgs_sent += 1;
        self.msgs_recv += 1;
        self.words_sent += w_out as u64;
        self.words_recv += w_in as u64;
        self.clock = self.clock.max(partner_ready) + model.message(w_out.max(w_in));
    }

    /// Record `n` floating-point operations.
    pub(crate) fn on_flops(&mut self, n: u64, model: &CostModel) {
        self.flops += n;
        self.clock += model.gamma * n as f64;
    }

    /// Record `w` words of transient buffer space in use.
    pub(crate) fn on_buffer(&mut self, w: usize) {
        self.peak_buffer_words = self.peak_buffer_words.max(w as u64);
    }

    /// Fold another rank's counters into this one: monotone counters and
    /// the clock add (the other run happened sequentially on the same
    /// rank), peak buffer takes the high-water mark.
    pub fn absorb(&mut self, other: &RankCost) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.words_sent += other.words_sent;
        self.words_recv += other.words_recv;
        self.flops += other.flops;
        self.clock += other.clock;
        self.peak_buffer_words = self.peak_buffer_words.max(other.peak_buffer_words);
    }

    /// The clock as a totally ordered integer sort key: `f64::to_bits`
    /// preserves ordering for the non-negative finite clocks the cost
    /// model produces. The event engine's ready heap is keyed on this.
    pub(crate) fn clock_key(&self) -> u64 {
        self.clock.to_bits()
    }
}

/// Name under which cost deltas are recorded while no phase is active.
pub(crate) const UNTAGGED_PHASE: &str = "(untagged)";

/// One named phase's accumulated costs on one rank.
///
/// `cost.clock` holds the model-time *spent inside* the phase (a duration,
/// not an absolute timestamp); `cost.peak_buffer_words` is the largest
/// buffer noted while the phase was innermost-active. All other fields are
/// plain counter deltas, so summing a rank's phases reproduces its totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Phase name (the static string passed to [`Comm::phase`](crate::Comm::phase)),
    /// or `"(untagged)"` for work outside every phase.
    pub name: &'static str,
    /// Counters accumulated while this phase was the innermost span.
    pub cost: RankCost,
}

/// Per-rank cost ledger: machine-wide totals plus the phase stack and the
/// per-phase breakdown. One ledger per *world* rank, shared by every
/// sub-communicator of that rank, so spans survive `Comm::split`.
#[derive(Debug, Default)]
pub(crate) struct RankLedger {
    pub(crate) total: RankCost,
    stack: Vec<&'static str>,
    phases: Vec<PhaseCost>,
}

impl RankLedger {
    /// The innermost active phase, if any.
    pub(crate) fn active_phase(&self) -> Option<&'static str> {
        self.stack.last().copied()
    }

    /// Whether no phase is active (used by collectives to self-report).
    pub(crate) fn is_idle(&self) -> bool {
        self.stack.is_empty()
    }

    pub(crate) fn push(&mut self, name: &'static str) {
        self.stack.push(name);
    }

    pub(crate) fn pop(&mut self) {
        self.stack
            .pop()
            .expect("pop_phase without a matching push_phase");
    }

    /// The row of phase `name`, created on first use. Phase names are
    /// string literals, so nearly every lookup ends at the pointer
    /// compare; two distinct statics with equal text are still one phase.
    fn entry(&mut self, name: &'static str) -> &mut RankCost {
        let found = (self.phases.iter())
            .position(|p| std::ptr::eq(p.name, name))
            .or_else(|| self.phases.iter().position(|p| p.name == name));
        if let Some(pos) = found {
            return &mut self.phases[pos].cost;
        }
        self.phases.push(PhaseCost {
            name,
            cost: RankCost::default(),
        });
        &mut self.phases.last_mut().unwrap().cost
    }

    /// Apply a cost mutation to the totals and attribute the delta to the
    /// innermost active phase (or [`UNTAGGED_PHASE`]). Pure reads (no
    /// counter or clock change) leave the breakdown untouched.
    pub(crate) fn apply<R>(
        &mut self,
        model: &CostModel,
        f: impl FnOnce(&mut RankCost, &CostModel) -> R,
    ) -> R {
        let before = self.total.clone();
        let r = f(&mut self.total, model);
        let t = self.total.clone();
        let d_clock = t.clock - before.clock;
        let peak_up = t.peak_buffer_words > before.peak_buffer_words;
        if t.msgs_sent != before.msgs_sent
            || t.msgs_recv != before.msgs_recv
            || t.words_sent != before.words_sent
            || t.words_recv != before.words_recv
            || t.flops != before.flops
            || d_clock != 0.0
            || peak_up
        {
            let name = self.active_phase().unwrap_or(UNTAGGED_PHASE);
            let e = self.entry(name);
            e.msgs_sent += t.msgs_sent - before.msgs_sent;
            e.msgs_recv += t.msgs_recv - before.msgs_recv;
            e.words_sent += t.words_sent - before.words_sent;
            e.words_recv += t.words_recv - before.words_recv;
            e.flops += t.flops - before.flops;
            e.clock += d_clock;
            if peak_up {
                e.peak_buffer_words = e.peak_buffer_words.max(t.peak_buffer_words);
            }
        }
        r
    }

    /// Record a buffer high-water probe both globally and in the active
    /// phase (phases record the largest buffer noted *while active*, even
    /// when the global high-water mark does not move).
    pub(crate) fn note_buffer(&mut self, w: usize) {
        self.total.on_buffer(w);
        let name = self.active_phase().unwrap_or(UNTAGGED_PHASE);
        self.entry(name).on_buffer(w);
    }

    pub(crate) fn into_parts(self) -> (RankCost, Vec<PhaseCost>) {
        (self.total, self.phases)
    }
}

/// Aggregated cost report for a full run of the machine.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// The model the run was charged under.
    pub model: CostModel,
    /// Per-rank cost rows, indexed by world rank.
    pub ranks: Vec<RankCost>,
    /// Per-rank, per-phase breakdown (phases in first-use order per rank).
    /// For every rank the field-wise sum of its phases equals its entry in
    /// `ranks` (exactly for the integer counters; up to rounding for the
    /// clock).
    pub phases: Vec<Vec<PhaseCost>>,
}

impl CostReport {
    /// Build a report with every rank's whole cost attributed to the
    /// untagged phase (useful for tests and synthetic reports).
    pub fn untagged(model: CostModel, ranks: Vec<RankCost>) -> Self {
        let phases = ranks
            .iter()
            .map(|r| {
                vec![PhaseCost {
                    name: UNTAGGED_PHASE,
                    cost: r.clone(),
                }]
            })
            .collect();
        CostReport {
            model,
            ranks,
            phases,
        }
    }

    /// Number of ranks in the run.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Bandwidth cost along the critical path: `max_p words_sent(p)`.
    ///
    /// This is the quantity Theorem 1 lower-bounds (the paper counts the
    /// words a single processor must move; with symmetric collectives,
    /// sends and receives coincide to leading order).
    pub fn max_words_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.words_sent).max().unwrap_or(0)
    }

    /// Latency cost along the critical path: `max_p msgs_sent(p)`.
    pub fn max_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_sent).max().unwrap_or(0)
    }

    /// Total words moved over the whole network (each word counted once,
    /// on the send side).
    pub fn total_words(&self) -> u64 {
        self.ranks.iter().map(|r| r.words_sent).sum()
    }

    /// Total flops across all ranks.
    pub fn total_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.flops).sum()
    }

    /// Maximum flops on any one rank (the computational critical path).
    pub fn max_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.flops).max().unwrap_or(0)
    }

    /// Final α-β-γ clock: maximum over ranks.
    pub fn elapsed(&self) -> f64 {
        self.ranks.iter().map(|r| r.clock).fold(0.0, f64::max)
    }

    /// Computational load imbalance: `max_p flops(p) / (total / P)`, or 1.0
    /// when no flops were performed.
    pub fn flop_imbalance(&self) -> f64 {
        let total = self.total_flops();
        if total == 0 {
            return 1.0;
        }
        let avg = total as f64 / self.num_ranks() as f64;
        self.max_flops() as f64 / avg
    }

    /// Largest transient collective buffer across ranks, in words.
    pub fn max_peak_buffer(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.peak_buffer_words)
            .max()
            .unwrap_or(0)
    }

    /// All phase names seen in the run, in first-use order (rank 0's
    /// phases first, then any additional names from later ranks).
    pub fn phase_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for rank in &self.phases {
            for p in rank {
                if !names.contains(&p.name) {
                    names.push(p.name);
                }
            }
        }
        names
    }

    /// The accumulated cost of phase `name` on `rank`, if that rank ever
    /// charged anything under it.
    pub fn phase_cost(&self, rank: usize, name: &str) -> Option<&RankCost> {
        self.phases
            .get(rank)?
            .iter()
            .find(|p| p.name == name)
            .map(|p| &p.cost)
    }

    /// Fold another report over the *same number of ranks* into this one
    /// (panics otherwise): rank counters and clocks add, peak buffers
    /// take the max, and phases merge by name — so summing a rank's
    /// phases still reconstructs its totals exactly. Recovery drivers
    /// use this to prepend a recovery prologue's `recover:*` charges to
    /// the successful re-execution's report.
    pub fn absorb(&mut self, other: &CostReport) {
        assert_eq!(
            self.ranks.len(),
            other.ranks.len(),
            "absorb: reports cover different rank counts"
        );
        for (mine, theirs) in self.ranks.iter_mut().zip(&other.ranks) {
            mine.absorb(theirs);
        }
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            for pc in theirs {
                match mine.iter_mut().find(|p| p.name == pc.name) {
                    Some(slot) => slot.cost.absorb(&pc.cost),
                    None => mine.push(pc.clone()),
                }
            }
        }
    }

    /// `max_p words_sent(p)` restricted to one phase — the per-term analog
    /// of [`CostReport::max_words_sent`] used by the bound attribution.
    pub fn phase_max_words_sent(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .flat_map(|rank| rank.iter().filter(|p| p.name == name))
            .map(|p| p.cost.words_sent)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate the per-rank breakdown into one row per phase.
    pub fn phase_table(&self) -> PhaseTable {
        let p = self.num_ranks().max(1);
        let rows = self
            .phase_names()
            .into_iter()
            .map(|name| {
                let per_rank: Vec<&RankCost> = (0..self.num_ranks())
                    .filter_map(|r| self.phase_cost(r, name))
                    .collect();
                let max_words_sent = per_rank.iter().map(|c| c.words_sent).max().unwrap_or(0);
                let total_words: u64 = per_rank.iter().map(|c| c.words_sent).sum();
                let words_imbalance = if total_words == 0 {
                    1.0
                } else {
                    max_words_sent as f64 / (total_words as f64 / p as f64)
                };
                PhaseRow {
                    name,
                    max_words_sent,
                    total_words,
                    max_msgs: per_rank.iter().map(|c| c.msgs_sent).max().unwrap_or(0),
                    total_flops: per_rank.iter().map(|c| c.flops).sum(),
                    max_flops: per_rank.iter().map(|c| c.flops).max().unwrap_or(0),
                    max_clock: per_rank.iter().map(|c| c.clock).fold(0.0, f64::max),
                    words_imbalance,
                }
            })
            .collect();
        PhaseTable { rows }
    }
}

/// One aggregated row of a [`PhaseTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase name.
    pub name: &'static str,
    /// `max_p words_sent(p)` within this phase — the quantity compared
    /// against the phase's analytic bound term.
    pub max_words_sent: u64,
    /// Total words sent by all ranks within this phase.
    pub total_words: u64,
    /// `max_p msgs_sent(p)` within this phase.
    pub max_msgs: u64,
    /// Total flops across ranks within this phase.
    pub total_flops: u64,
    /// `max_p flops(p)` within this phase.
    pub max_flops: u64,
    /// Largest model-time any rank spent inside this phase.
    pub max_clock: f64,
    /// `max_p words_sent(p) / (total_words / P)`; 1.0 when no words moved.
    pub words_imbalance: f64,
}

/// A per-phase cost breakdown aggregated over ranks, one row per phase in
/// first-use order. Renders as an aligned text table via `Display`.
#[derive(Debug, Clone)]
pub struct PhaseTable {
    /// One aggregated row per phase.
    pub rows: Vec<PhaseRow>,
}

impl PhaseTable {
    /// The row for phase `name`, if present.
    pub fn row(&self, name: &str) -> Option<&PhaseRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for PhaseTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<20} {:>12} {:>12} {:>8} {:>14} {:>10} {:>9}",
            "phase", "max words", "tot words", "max msg", "tot flops", "max clock", "imbal"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<20} {:>12} {:>12} {:>8} {:>14} {:>10.3e} {:>9.3}",
                r.name,
                r.max_words_sent,
                r.total_words,
                r.max_msgs,
                r.total_flops,
                r.max_clock,
                r.words_imbalance,
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CostReport: P={} max_words_sent={} max_msgs={} total_flops={} imbalance={:.3} max_peak_buffer={} elapsed={:.3e}",
            self.num_ranks(),
            self.max_words_sent(),
            self.max_messages(),
            self.total_flops(),
            self.flop_imbalance(),
            self.max_peak_buffer(),
            self.elapsed(),
        )?;
        for (p, r) in self.ranks.iter().enumerate() {
            writeln!(
                f,
                "  rank {p:>3}: sent {:>10} w / {:>6} msg, recv {:>10} w / {:>6} msg, flops {:>12}, peak {:>8} w, clock {:.3e}",
                r.words_sent, r.msgs_sent, r.words_recv, r.msgs_recv, r.flops, r.peak_buffer_words, r.clock
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_combines_alpha_beta() {
        let m = CostModel {
            alpha: 2.0,
            beta: 0.5,
            gamma: 0.0,
        };
        assert_eq!(m.message(10), 2.0 + 5.0);
        assert_eq!(m.message(0), 2.0);
    }

    #[test]
    fn send_recv_update_counters_and_clock() {
        let m = CostModel {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
        };
        let mut c = RankCost::default();
        c.on_send(4, &m);
        assert_eq!(c.msgs_sent, 1);
        assert_eq!(c.words_sent, 4);
        assert_eq!(c.clock, 5.0);
        c.on_recv(2, 10.0, &m);
        assert_eq!(c.words_recv, 2);
        // clock jumps to the sender's ready time, then pays α + β·w.
        assert_eq!(c.clock, 10.0 + 3.0);
    }

    #[test]
    fn exchange_charges_max_direction() {
        let m = CostModel {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
        };
        let mut c = RankCost::default();
        c.on_exchange(3, 7, 0.0, &m);
        assert_eq!(c.words_sent, 3);
        assert_eq!(c.words_recv, 7);
        assert_eq!(c.clock, 1.0 + 7.0);
    }

    #[test]
    fn flops_advance_clock_by_gamma() {
        let m = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 2.0,
        };
        let mut c = RankCost::default();
        c.on_flops(5, &m);
        assert_eq!(c.flops, 5);
        assert_eq!(c.clock, 10.0);
    }

    #[test]
    fn report_aggregates() {
        let model = CostModel::bandwidth_only();
        let mut a = RankCost::default();
        let mut b = RankCost::default();
        a.on_send(10, &model);
        b.on_send(4, &model);
        b.on_flops(100, &model);
        let rep = CostReport::untagged(model, vec![a, b]);
        assert_eq!(rep.max_words_sent(), 10);
        assert_eq!(rep.total_words(), 14);
        assert_eq!(rep.total_flops(), 100);
        assert_eq!(rep.max_flops(), 100);
        // one rank does all flops of two ranks: imbalance = 2.
        assert!((rep.flop_imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let rep = CostReport::untagged(CostModel::default(), vec![]);
        assert_eq!(rep.max_words_sent(), 0);
        assert_eq!(rep.elapsed(), 0.0);
        assert_eq!(rep.flop_imbalance(), 1.0);
        assert!(rep.phase_names().is_empty());
        assert!(rep.phase_table().rows.is_empty());
    }

    #[test]
    fn peak_buffer_tracks_high_water_mark() {
        let mut c = RankCost::default();
        c.on_buffer(10);
        c.on_buffer(3);
        assert_eq!(c.peak_buffer_words, 10);
        c.on_buffer(20);
        assert_eq!(c.peak_buffer_words, 20);
    }

    #[test]
    fn ledger_attributes_to_innermost_phase() {
        let model = CostModel::bandwidth_only();
        let mut l = RankLedger::default();
        l.apply(&model, |c, m| c.on_send(5, m)); // untagged
        l.push("outer");
        l.apply(&model, |c, m| c.on_send(10, m));
        l.push("inner");
        l.apply(&model, |c, m| c.on_flops(7, m));
        l.pop();
        l.apply(&model, |c, m| c.on_send(1, m)); // outer again
        l.pop();
        let (total, phases) = l.into_parts();
        assert_eq!(total.words_sent, 16);
        assert_eq!(total.flops, 7);
        let by_name: Vec<(&str, u64, u64)> = phases
            .iter()
            .map(|p| (p.name, p.cost.words_sent, p.cost.flops))
            .collect();
        assert_eq!(
            by_name,
            vec![(UNTAGGED_PHASE, 5, 0), ("outer", 11, 0), ("inner", 0, 7),]
        );
        // Phase sums reproduce the totals.
        let sum_words: u64 = phases.iter().map(|p| p.cost.words_sent).sum();
        assert_eq!(sum_words, total.words_sent);
    }

    #[test]
    fn ledger_ignores_pure_reads() {
        let model = CostModel::bandwidth_only();
        let mut l = RankLedger::default();
        let clock = l.apply(&model, |c, _| c.clock);
        assert_eq!(clock, 0.0);
        let (_, phases) = l.into_parts();
        assert!(phases.is_empty(), "a read must not open a phase entry");
    }

    #[test]
    fn ledger_notes_buffer_per_phase() {
        let mut l = RankLedger::default();
        l.note_buffer(100);
        l.push("a");
        // Smaller than the global high-water mark, but the phase still
        // records its own largest probe.
        l.note_buffer(40);
        l.pop();
        let (total, phases) = l.into_parts();
        assert_eq!(total.peak_buffer_words, 100);
        assert_eq!(phases[0].name, UNTAGGED_PHASE);
        assert_eq!(phases[0].cost.peak_buffer_words, 100);
        assert_eq!(phases[1].name, "a");
        assert_eq!(phases[1].cost.peak_buffer_words, 40);
    }

    #[test]
    fn ledger_merges_equal_names_at_distinct_addresses() {
        // The same phase named from two crates is two statics; the pointer
        // compare misses and the content compare must still find the row.
        static A: [u8; 4] = *b"gram";
        static B: [u8; 4] = *b"gram";
        let (a, b) = (
            std::str::from_utf8(&A).unwrap(),
            std::str::from_utf8(&B).unwrap(),
        );
        assert!(!std::ptr::eq(a, b));
        let model = CostModel::bandwidth_only();
        let mut l = RankLedger::default();
        for name in [a, "other", b, a] {
            l.push(name);
            l.apply(&model, |c, m| c.on_send(2, m));
            l.pop();
        }
        let (_, phases) = l.into_parts();
        let rows: Vec<(&str, u64)> = phases.iter().map(|p| (p.name, p.cost.msgs_sent)).collect();
        assert_eq!(rows, [("gram", 3), ("other", 1)]);
    }

    #[test]
    fn phase_table_aggregates_across_ranks() {
        let model = CostModel::bandwidth_only();
        let mk = |w: u64, f: u64| RankCost {
            words_sent: w,
            flops: f,
            ..Default::default()
        };
        let rep = CostReport {
            model,
            ranks: vec![mk(30, 10), mk(10, 10)],
            phases: vec![
                vec![
                    PhaseCost {
                        name: "comm",
                        cost: mk(30, 0),
                    },
                    PhaseCost {
                        name: "compute",
                        cost: mk(0, 10),
                    },
                ],
                vec![
                    PhaseCost {
                        name: "comm",
                        cost: mk(10, 0),
                    },
                    PhaseCost {
                        name: "compute",
                        cost: mk(0, 10),
                    },
                ],
            ],
        };
        assert_eq!(rep.phase_names(), vec!["comm", "compute"]);
        assert_eq!(rep.phase_max_words_sent("comm"), 30);
        let table = rep.phase_table();
        let comm = table.row("comm").unwrap();
        assert_eq!(comm.max_words_sent, 30);
        assert_eq!(comm.total_words, 40);
        assert!((comm.words_imbalance - 1.5).abs() < 1e-12);
        let compute = table.row("compute").unwrap();
        assert_eq!(compute.total_flops, 20);
        assert_eq!(compute.words_imbalance, 1.0);
        // Table renders without panicking and mentions every phase.
        let text = table.to_string();
        assert!(text.contains("comm") && text.contains("compute"));
    }

    #[test]
    fn display_includes_peak_buffer() {
        let model = CostModel::bandwidth_only();
        let mut a = RankCost::default();
        a.on_buffer(123);
        let rep = CostReport::untagged(model, vec![a]);
        let text = rep.to_string();
        assert!(text.contains("max_peak_buffer=123"), "{text}");
        assert!(text.contains("peak      123 w"), "{text}");
    }
}
