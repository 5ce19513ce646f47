//! All-Reduce = Reduce-Scatter + All-Gather (Rabenseifner's scheme),
//! which is bandwidth-optimal at `2(1 − 1/P)·w` words per rank.

use crate::comm::Comm;
use crate::error::MachineError;

impl Comm {
    /// Element-wise sum of every rank's `data`, delivered to every rank.
    /// All ranks must pass equal-length buffers.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_all_reduce(&self, data: &[f64]) -> Result<Vec<f64>, MachineError> {
        crate::metrics::ALL_REDUCE.record(data.len());
        let _span = self.collective_phase("coll:all-reduce");
        let p = self.size();
        if p == 1 {
            return Ok(data.to_vec());
        }
        // Split the buffer into P near-even segments, reduce-scatter them,
        // then all-gather the reduced segments back together.
        let n = data.len();
        let base = n / p;
        let extra = n % p;
        let counts: Vec<usize> = (0..p).map(|q| base + usize::from(q < extra)).collect();
        let mine = self.try_reduce_scatter_block(data, &counts)?;
        self.try_all_gather_concat(mine)
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::Machine;

    #[test]
    fn all_reduce_sums_everywhere() {
        for p in [1, 2, 3, 5, 8] {
            for n in [0, 1, 3, 17] {
                let out = Machine::new(p)
                    .try_run(|comm| {
                        let data: Vec<f64> = (0..n).map(|i| (comm.rank() * n + i) as f64).collect();
                        comm.try_all_reduce(&data)
                    })
                    .unwrap();
                for res in &out.results {
                    for (i, &x) in res.iter().enumerate() {
                        let expected: f64 = (0..p).map(|r| (r * n + i) as f64).sum();
                        assert_eq!(x, expected, "P={p} n={n} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn bandwidth_is_twice_reduce_scatter() {
        let (p, n) = (4, 100);
        let out = Machine::new(p)
            .try_run(|comm| comm.try_all_reduce(&vec![1.0; n]).map(drop))
            .unwrap();
        // 2·(1 − 1/P)·n = 2 · 75 = 150 words per rank.
        for r in &out.cost.ranks {
            assert_eq!(r.words_sent, (2 * (n - n / p)) as u64);
        }
    }
}
