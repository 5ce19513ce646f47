//! Semantic edge cases of the simulated machine: self-messaging, nested
//! sub-communicators, clock/critical-path behaviour, and collectives on
//! sub-communicators.

use syrk_machine::{CostModel, Machine};

#[test]
fn send_to_self_is_legal() {
    // The transport is buffered, so a rank may mail itself (useful for
    // uniform collective code paths).
    let out = Machine::new(2)
        .try_run(|comm| {
            comm.try_send(comm.rank(), 5, vec![comm.rank() as f64 + 0.5])?;
            let v: Vec<f64> = comm.try_recv(comm.rank(), 5)?;
            Ok(v[0])
        })
        .unwrap();
    assert_eq!(out.results, vec![0.5, 1.5]);
}

#[test]
fn nested_splits_isolate_traffic() {
    // Split the world 8 → two halves → quarters; traffic stays within the
    // innermost group and ranks renumber correctly at each level.
    let out = Machine::new(8)
        .try_run(|mut comm| {
            let half = comm.rank() / 4;
            let mut sub = comm.split(half as u64, comm.rank());
            assert_eq!(sub.size(), 4);
            let quarter = sub.rank() / 2;
            let subsub = sub.split(quarter as u64, sub.rank());
            assert_eq!(subsub.size(), 2);
            // All-reduce world ranks within the pair.
            let sum = subsub.try_all_reduce(&[comm.rank() as f64])?;
            Ok(sum[0])
        })
        .unwrap();
    // Pairs are (0,1), (2,3), (4,5), (6,7).
    assert_eq!(out.results, vec![1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 13.0, 13.0]);
}

#[test]
fn split_then_collective_on_parent_still_works() {
    let out = Machine::new(4)
        .try_run(|mut comm| {
            let sub = comm.split((comm.rank() % 2) as u64, 0);
            let sub_sum = sub.try_all_reduce(&[1.0])?[0];
            // Parent communicator remains fully functional after splitting.
            Ok(comm.try_all_reduce(&[sub_sum])?[0])
        })
        .unwrap();
    assert!(out.results.iter().all(|&x| x == 8.0)); // 4 ranks × subgroup size 2
}

#[test]
fn clock_tracks_critical_path_through_a_chain() {
    // A relay 0 → 1 → 2: rank 2's clock must include both hops.
    let model = CostModel {
        alpha: 1.0,
        beta: 1.0,
        gamma: 0.0,
    };
    let out = Machine::new(3)
        .with_model(model)
        .try_run(|comm| match comm.rank() {
            0 => comm.try_send(1, 0, vec![1.0; 10]),
            1 => {
                let v: Vec<f64> = comm.try_recv(0, 0)?;
                comm.try_send(2, 0, v)
            }
            _ => comm.try_recv::<Vec<f64>>(1, 0).map(drop),
        })
        .unwrap();
    // Hop cost = α + β·10 = 11. Rank 1 receives at 11, sends (clock 22);
    // rank 2 receives: max(0, ready=11) + 11 = 22? Sender's ready for the
    // second hop is 11 (its clock before sending), so rank 2 ends at
    // 11 + 11 = 22.
    assert!((out.cost.ranks[2].clock - 22.0).abs() < 1e-12);
    // The elapsed time is the maximum clock anywhere.
    assert!((out.cost.elapsed() - 22.0).abs() < 1e-12);
}

#[test]
fn flops_delay_downstream_receivers() {
    // γ-work on the sender pushes the send later, which the receiver's
    // clock must reflect (compute/communication dependency).
    let model = CostModel {
        alpha: 0.0,
        beta: 1.0,
        gamma: 1.0,
    };
    let out = Machine::new(2)
        .with_model(model)
        .try_run(|comm| {
            if comm.rank() == 0 {
                comm.add_flops(100);
                comm.try_send(1, 0, vec![1.0])
            } else {
                comm.try_recv::<Vec<f64>>(0, 0).map(drop)
            }
        })
        .unwrap();
    // Receiver: max(0, sender_ready=100) + 1 = 101.
    assert!((out.cost.ranks[1].clock - 101.0).abs() < 1e-12);
}

#[test]
fn collectives_work_on_subcommunicators() {
    let out = Machine::new(6)
        .try_run(|mut comm| {
            let color = (comm.rank() % 3) as u64;
            let sub = comm.split(color, comm.rank());
            assert_eq!(sub.size(), 2);
            // all_to_all within the pair.
            let blocks: Vec<Vec<f64>> = (0..2)
                .map(|q| vec![(comm.rank() * 10 + q) as f64])
                .collect();
            let recv = sub.try_all_to_all(blocks)?;
            // gather at sub-root.
            let g = sub.try_gather(0, vec![comm.rank() as f64])?;
            Ok((recv[1 - sub.rank()][0], g.map(|v| v.len())))
        })
        .unwrap();
    // Pairs by color: {0,3}, {1,4}, {2,5}. Rank 0 receives 3's block 0.
    assert_eq!(out.results[0].0, 30.0);
    assert_eq!(out.results[3].0, 1.0); // rank 3 receives 0's block 1
    assert_eq!(out.results[0].1, Some(2));
    assert_eq!(out.results[3].1, None);
}

#[test]
fn timeout_reports_deadlock_instead_of_hanging() {
    let err = Machine::new(2)
        .try_run(|comm| {
            if comm.rank() == 0 {
                // Rank 0 waits for a message nobody sends.
                let _: Vec<f64> = comm.try_recv(1, 77)?;
            }
            Ok(())
        })
        .expect_err("a deadlocked recv must fail the run");
    let message = err.to_string();
    assert!(
        message.contains("rank 0 waits on rank 1 (recv tag (0, 77))"),
        "the error must carry the wait-for edge 0 → 1: {message}"
    );
}

#[test]
fn heterogeneous_payload_types_coexist() {
    let out = Machine::new(2)
        .try_run(|comm| {
            if comm.rank() == 0 {
                comm.try_send(1, 1, vec![1.0f64, 2.0])?;
                comm.try_send(1, 2, vec![3u64, 4])?;
                comm.try_send(1, 3, 7usize)?;
                comm.try_send(1, 4, ())?;
                Ok(0)
            } else {
                let a: Vec<f64> = comm.try_recv(0, 1)?;
                let b: Vec<u64> = comm.try_recv(0, 2)?;
                let c: usize = comm.try_recv(0, 3)?;
                let _: () = comm.try_recv(0, 4)?;
                Ok(a.len() + b.len() + c)
            }
        })
        .unwrap();
    assert_eq!(out.results[1], 2 + 2 + 7);
    // Word accounting: 2 + 2 + 1 + 0.
    assert_eq!(out.cost.ranks[0].words_sent, 5);
}

#[test]
fn broadcast_on_subcommunicator_uses_group_ranks() {
    let out = Machine::new(6)
        .try_run(|mut comm| {
            let sub = comm.split((comm.rank() / 3) as u64, comm.rank());
            // Root 2 *within the group* = world rank 2 or 5.
            let data = (sub.rank() == 2).then(|| vec![comm.rank() as f64]);
            Ok(sub.try_broadcast(2, data)?[0])
        })
        .unwrap();
    assert_eq!(out.results[..3], [2.0, 2.0, 2.0]);
    assert_eq!(out.results[3..], [5.0, 5.0, 5.0]);
}

#[test]
fn tracing_records_the_timeline() {
    let out = Machine::new(2)
        .with_tracing()
        .try_run(|comm| {
            if comm.rank() == 0 {
                comm.add_flops(5);
                comm.try_send(1, 0, vec![1.0; 3])
            } else {
                comm.try_recv::<Vec<f64>>(0, 0).map(drop)
            }
        })
        .unwrap();
    let traces = out.traces.expect("tracing was enabled");
    use syrk_machine::EventKind;
    assert_eq!(traces[0].len(), 2);
    assert_eq!(traces[0][0].kind, EventKind::Flops);
    assert_eq!(traces[0][0].amount, 5);
    assert_eq!(traces[0][1].kind, EventKind::Send);
    assert_eq!(traces[0][1].peer, 1);
    assert_eq!(traces[0][1].amount, 3);
    assert_eq!(traces[1].len(), 1);
    assert_eq!(traces[1][0].kind, EventKind::Recv);
    // Clocks are monotone within a rank.
    assert!(traces[0][0].clock <= traces[0][1].clock);
}

#[test]
fn tracing_off_by_default() {
    let out = Machine::new(2).try_run(|comm| comm.try_barrier()).unwrap();
    assert!(out.traces.is_none());
}

#[test]
fn collective_traces_show_pairwise_structure() {
    let p = 4;
    let out = Machine::new(p)
        .with_tracing()
        .try_run(|comm| comm.try_all_to_all(vec![vec![1.0; 2]; p]).map(drop))
        .unwrap();
    let traces = out.traces.unwrap();
    for (r, tl) in traces.iter().enumerate() {
        // P−1 exchange events per rank, peers = everyone else exactly once.
        use syrk_machine::EventKind;
        let peers: Vec<usize> = tl
            .iter()
            .filter(|e| e.kind == EventKind::Exchange)
            .map(|e| e.peer)
            .collect();
        assert_eq!(peers.len(), p - 1, "rank {r}");
        let mut sorted = peers.clone();
        sorted.sort_unstable();
        let expect: Vec<usize> = (0..p).filter(|&q| q != r).collect();
        assert_eq!(sorted, expect, "rank {r}");
    }
}
