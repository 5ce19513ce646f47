//! E2 (Table 1 + Fig. 2) and E3 (Fig. 3) — regenerating the paper's
//! distribution tables and figures from the implementation.

use crate::table::Table;
use syrk_core::{SyrkError, TriangleBlockDist};

fn set_str(s: &[usize]) -> String {
    let inner: Vec<String> = s.iter().map(|x| x.to_string()).collect();
    format!("{{{}}}", inner.join(","))
}

/// E2 — Table 1: the row block sets `R_k`, diagonal blocks `D_k`, and
/// processor sets `Q_i` for `c = 3, P = 12`, exactly as printed in the
/// paper, regenerated from eqs. (4)–(8).
pub fn table1_distribution() -> Result<Vec<Table>, SyrkError> {
    let d = TriangleBlockDist::new(3);
    let mut t = Table::new(
        "E2 / Table 1 — Triangle Block Distribution row block sets (c=3, P=12)",
        &["k", "R_k", "D_k"],
    );
    for k in 0..d.p() {
        t.row(vec![
            k.to_string(),
            set_str(d.r_set(k)),
            d.d_block(k)
                .map_or("{}".to_string(), |i| format!("{{{i}}}")),
        ]);
    }
    t.note("paper Table 1 (left): R_0={0,3,6} ... R_11={6,7,8}; D_0..2={}, D_3={1}, ..., D_11={8}");

    let mut q = Table::new(
        "E2 / Table 1 — Triangle Block Distribution processor sets (c=3, P=12)",
        &["i", "Q_i"],
    );
    for i in 0..d.num_blocks() {
        q.row(vec![i.to_string(), set_str(d.q_set(i))]);
    }
    q.note("paper Table 1 (right): Q_0={0,1,2,9} ... Q_8={2,4,6,11}");

    // Fig. 2: block-owner map of C.
    let mut f = Table::new(
        "E2 / Fig. 2 — owner of each block of C (c=3, P=12; row i, col j, lower triangle)",
        &["i\\j", "0", "1", "2", "3", "4", "5", "6", "7", "8"],
    );
    for i in 0..9 {
        let mut row = vec![i.to_string()];
        for j in 0..9 {
            row.push(match j.cmp(&i) {
                std::cmp::Ordering::Less => d.owner_of(i, j).to_string(),
                std::cmp::Ordering::Equal => format!("[{}]", d.diag_owner_of(i)),
                std::cmp::Ordering::Greater => "".to_string(),
            });
        }
        f.row(row);
    }
    f.note("diagonal owners in [brackets]; compare blue rank labels in paper Fig. 2");
    Ok(vec![t, q, f])
}

/// E3 — Figure 3: the 3D distribution with `p1 = 6 (c = 2), p2 = 3`:
/// each slice ℓ reuses the 2D distribution on its block column of A, and
/// each triangle-block-of-blocks `C_k` is shared by the `p2` ranks of the
/// grid row `Π_{k*}`.
pub fn fig3_3d_distribution() -> Result<Vec<Table>, SyrkError> {
    let d = TriangleBlockDist::new(2);
    let (p1, p2) = (d.p(), 3usize);

    let mut t = Table::new(
        "E3 / Fig. 3 — 3D Triangle Block Distribution (p1=6, c=2, p2=3)",
        &[
            "k",
            "R_k",
            "D_k",
            "C blocks of rank k",
            "shared by grid row ranks",
        ],
    );
    for k in 0..p1 {
        let blocks: Vec<String> = d
            .blocks_of(k)
            .iter()
            .map(|&(i, j)| format!("C{i}{j}"))
            .collect();
        let row_ranks: Vec<String> = (0..p2).map(|l| (k + l * p1).to_string()).collect();
        t.row(vec![
            k.to_string(),
            set_str(d.r_set(k)),
            d.d_block(k)
                .map_or("{}".to_string(), |i| format!("{{{i}}}")),
            blocks.join(" "),
            row_ranks.join(","),
        ]);
    }
    t.note("paper Fig. 3: C divided across p1=6 ranks by the c=2 triangle scheme;");
    t.note("each C_k reduce-scattered over its p2=3 grid-row ranks (background colors)");

    let mut a = Table::new(
        "E3 / Fig. 3 — A block ownership (c^2=4 row blocks x p2=3 column blocks)",
        &["A block (i,l)", "Q_i x {l} world ranks"],
    );
    for i in 0..d.num_blocks() {
        for l in 0..p2 {
            let ranks: Vec<String> = d
                .q_set(i)
                .iter()
                .map(|&k| (k + l * p1).to_string())
                .collect();
            a.row(vec![format!("A({i},{l})"), ranks.join(",")]);
        }
    }
    a.note("each block A_il evenly divided across its c+1=3 slice ranks, per Fig. 3's red/colored labels");
    Ok(vec![t, a])
}
