//! `Comm::split`: the groups it builds, what it costs the scheduler, and
//! how a member that never arrives is diagnosed.
//!
//! The cost test reads the process-wide `syrk_engine_resumes` counter, so
//! this file is a process of its own and its tests take turns in it.

use std::sync::Mutex;

use syrk_dense::DetRng;
use syrk_machine::telemetry::registry;
use syrk_machine::{Machine, MachineError, ProcessGrid};

static ONE_MACHINE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_MACHINE_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn resumes() -> u64 {
    registry::snapshot()
        .counter("syrk_engine_resumes")
        .unwrap_or(0)
}

/// What a split must produce, by brute force: for each member of a
/// communicator of `colors.len()` ranks, its `(group rank, group size)`
/// and the parent rank of its predecessor in the group's ring.
fn brute_force(colors: &[u64], keys: &[usize]) -> Vec<(usize, usize, usize)> {
    (0..colors.len())
        .map(|me| {
            let mut group: Vec<(usize, usize)> = (0..colors.len())
                .filter(|&r| colors[r] == colors[me])
                .map(|r| (keys[r], r))
                .collect();
            group.sort();
            let pos = group.iter().position(|&(_, r)| r == me).unwrap();
            let prev = group[(pos + group.len() - 1) % group.len()].1;
            (pos, group.len(), prev)
        })
        .collect()
}

/// Random colors (a few, so groups have several members) and keys (with
/// ties, so the parent-rank tie break is exercised).
fn draw(rng: &mut DetRng, p: usize) -> (Vec<u64>, Vec<usize>) {
    let ncolors = 1 + rng.gen_below(p.min(9) as u64);
    let colors = (0..p).map(|_| 1000 + rng.gen_below(ncolors)).collect();
    let keys = (0..p).map(|_| rng.gen_range(0, p.div_ceil(2))).collect();
    (colors, keys)
}

#[test]
fn split_and_split_of_a_split_match_a_brute_force_sort() {
    let _turn = turn();
    let mut rng = DetRng::seed_from_u64(0x5b11);
    for p in [1usize, 2, 7, 64, 1000] {
        let (c1, k1) = draw(&mut rng, p);
        let (c2, k2) = draw(&mut rng, p);
        let (c1, k1, c2, k2) = (&c1, &k1, &c2, &k2);
        let out = Machine::new(p)
            .try_run(|mut comm| {
                let me = comm.rank();
                let mut sub = comm.split(c1[me], k1[me]);
                // Ring within the child: the predecessor's world rank arrives.
                let (r, n) = (sub.rank(), sub.size());
                sub.try_send((r + 1) % n, 1, me)?;
                let got_prev: usize = sub.try_recv((r + n - 1) % n, 1)?;
                let first = (sub.rank(), sub.size(), got_prev);
                // The grandchild splits the child by the second draw.
                let subsub = sub.split(c2[me], k2[me]);
                Ok((first, subsub.rank(), subsub.size(), sub.rank()))
            })
            .unwrap();
        let want1 = brute_force(c1, k1);
        for (me, got) in out.results.iter().enumerate() {
            assert_eq!(got.0, want1[me], "P = {p}: first split, world rank {me}");
        }
        // Second level: brute force within each child, over its members in
        // child-rank order.
        for color in c1.iter().collect::<std::collections::BTreeSet<_>>() {
            let mut members: Vec<usize> = (0..p).filter(|&r| c1[r] == *color).collect();
            members.sort_by_key(|&r| out.results[r].3);
            let colors: Vec<u64> = members.iter().map(|&r| c2[r]).collect();
            let keys: Vec<usize> = members.iter().map(|&r| k2[r]).collect();
            for (pos, want) in brute_force(&colors, &keys).into_iter().enumerate() {
                let r = members[pos];
                assert_eq!(
                    (out.results[r].1, out.results[r].2),
                    (want.0, want.1),
                    "P = {p}: split of a split, world rank {r}"
                );
            }
        }
        // Bookkeeping charges nothing: the words are the ring's, one each.
        assert_eq!(out.cost.total_words(), p as u64);
    }
}

/// The root gathers and answers: every member resumes once to start,
/// once for its reply, and the root about once more per split, so the
/// two splits of a grid stay linear in P (3P here). Sending every
/// member's metadata to every other member would take P(P − 1)
/// envelopes and as many resumes.
#[test]
fn a_grid_split_costs_a_linear_number_of_resumes() {
    let _turn = turn();
    let p = 4096;
    let grid = ProcessGrid::new(64, 64);
    let before = resumes();
    let out = Machine::new(p)
        .try_run(|mut comm| {
            let gc = grid.split(&mut comm);
            Ok((gc.k, gc.l, gc.slice.size(), gc.row.size()))
        })
        .unwrap();
    let spent = resumes() - before;
    assert!(
        spent <= 4 * p as u64,
        "{spent} resumes for a {p}-rank grid split"
    );
    for (r, got) in out.results.iter().enumerate() {
        let (k, l) = grid.coords(r);
        assert_eq!(*got, (k, l, 64, 64));
    }
    assert_eq!(out.cost.total_words(), 0);
}

#[test]
fn a_member_that_never_splits_is_a_deadlock_naming_it() {
    let _turn = turn();
    let p = 6;
    for missing in [0usize, 3] {
        let err = Machine::new(p)
            .try_run(|mut comm| {
                if comm.rank() != missing {
                    comm.split(0, comm.rank());
                }
                Ok::<_, MachineError>(())
            })
            .expect_err("a missing member must stall the split");
        let MachineError::Deadlock(info) = err else {
            panic!("missing {missing}: expected a deadlock, got {err}");
        };
        assert_eq!(info.finished, vec![missing], "{info}");
        assert_eq!(info.edges.len(), p - 1, "{info}");
        assert!(info.edges.iter().all(|e| e.op == "split"), "{info}");
        assert!(info.edges.iter().any(|e| e.to == missing), "{info}");
    }
}

/// A grid with a unit dimension is split without a message: the
/// communicator is the slice (`p2 = 1`) or the row (`p1 = 1`), and each
/// rank is alone in the other. The split costs no resume beyond a run
/// that never splits, and both communicators work.
#[test]
fn a_grid_with_a_unit_dimension_splits_without_a_message() {
    let _turn = turn();
    let p = 6;
    let before = resumes();
    Machine::new(p).try_run(|_| Ok(())).unwrap();
    let idle = resumes() - before;
    for grid in [ProcessGrid::new(p, 1), ProcessGrid::new(1, p)] {
        let before = resumes();
        Machine::new(p)
            .try_run(|mut comm| {
                grid.split(&mut comm);
                Ok(())
            })
            .unwrap();
        assert_eq!(resumes() - before, idle, "{grid:?}");

        let out = Machine::new(p)
            .try_run(|mut comm| {
                let gc = grid.split(&mut comm);
                let me = comm.world_rank() as f64;
                let sum = |c: &syrk_machine::Comm| -> Result<f64, MachineError> {
                    Ok(c.try_all_gather(vec![me])?.iter().map(|b| b[0]).sum())
                };
                Ok((
                    gc.k,
                    gc.l,
                    gc.slice.size(),
                    gc.row.size(),
                    sum(&gc.slice)?,
                    sum(&gc.row)?,
                ))
            })
            .unwrap();
        let everyone = (0..p).sum::<usize>() as f64;
        for (r, got) in out.results.iter().enumerate() {
            let (k, l) = grid.coords(r);
            let (slice_sum, row_sum) = if grid.p2 == 1 {
                (everyone, r as f64)
            } else {
                (r as f64, everyone)
            };
            assert_eq!(
                *got,
                (k, l, grid.p1, grid.p2, slice_sum, row_sum),
                "{grid:?}"
            );
        }
        assert_eq!(out.cost.total_words(), (p * (p - 1)) as u64, "{grid:?}");
    }
}
