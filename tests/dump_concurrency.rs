//! Failure dumps under concurrent `Machine::try_run` calls: scoped
//! per-run destinations must route independently, and simultaneous
//! dumps — even to one shared global path — must never interleave or
//! truncate each other's JSON.

use std::path::PathBuf;
use std::sync::Barrier;

use syrk_machine::{scoped_failure_dump_path, set_failure_dump_path, Machine, MachineError};
use syrk_server::json;

/// A two-rank run where each rank waits on the other: deadlocks,
/// deterministically.
fn forced_deadlock(tag: usize) -> MachineError {
    Machine::new(2)
        .try_run(|comm| -> Result<(), MachineError> {
            let peer = 1 - comm.rank();
            let _: Vec<f64> = comm.try_recv(peer, tag as u64)?;
            Ok(())
        })
        .expect_err("the cross-wait must deadlock")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_complete_dump(path: &PathBuf) {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("dump {} missing: {e}", path.display()));
    let doc = json::parse(&body)
        .unwrap_or_else(|e| panic!("dump {} is torn/invalid JSON: {e}", path.display()));
    assert_eq!(
        doc.get("kind").and_then(json::Json::as_str),
        Some("deadlock"),
        "{}",
        path.display()
    );
    assert!(doc.get("wait_for").is_some(), "{}", path.display());
    assert!(doc.get("metrics").is_some(), "{}", path.display());
}

#[test]
fn simultaneous_deadlocks_dump_to_scoped_paths_independently() {
    let dir = fresh_dir("syrk_dump_scoped_concurrent");
    // A process-global path is also set; the scoped paths must win and
    // nothing may land on the global one.
    let global = dir.join("global.json");
    let prev = set_failure_dump_path(Some(global.clone()));
    let barrier = Barrier::new(2);
    let paths: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("run_{i}.json"))).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = paths
            .iter()
            .enumerate()
            .map(|(i, path)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let _scope = scoped_failure_dump_path(Some(path.clone()));
                    barrier.wait();
                    let err = forced_deadlock(i);
                    assert!(matches!(err, MachineError::Deadlock(_)));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("deadlock run thread panicked");
        }
    });
    set_failure_dump_path(prev);
    for path in &paths {
        assert_complete_dump(path);
    }
    assert!(
        !global.exists(),
        "scoped paths must take precedence over the global slot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simultaneous_dumps_to_one_shared_path_never_tear() {
    let dir = fresh_dir("syrk_dump_shared_concurrent");
    let shared = dir.join("shared.json");
    let threads = 4;
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    // Scoped (not set_failure_dump_path) so this test
                    // cannot clobber a sibling test's global slot.
                    let _scope = scoped_failure_dump_path(Some(shared));
                    barrier.wait();
                    let _ = forced_deadlock(i);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("deadlock run thread panicked");
        }
    });
    // Whoever wrote last, the file is one complete, parseable document —
    // serialized writes plus rename-into-place forbid interleaving.
    assert_complete_dump(&shared);
    // No leftover temp scratch files.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
