//! Failure dumps under concurrent `Machine::try_run` calls: per-machine
//! destinations must route independently, and simultaneous dumps — even
//! to one shared path — must never interleave or truncate each other's
//! JSON.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use syrk_machine::{Machine, MachineError};
use syrk_server::json;

/// A two-rank run where each rank waits on the other: deadlocks,
/// deterministically, and dumps to `dump`.
fn forced_deadlock(tag: usize, dump: &Path) -> MachineError {
    Machine::new(2)
        .with_failure_dump(dump)
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
    let barrier = Barrier::new(2);
    let paths: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("run_{i}.json"))).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = paths
            .iter()
            .enumerate()
            .map(|(i, path)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let err = forced_deadlock(i, path);
                    assert!(matches!(err, MachineError::Deadlock(_)));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("deadlock run thread panicked");
        }
    });
    for path in &paths {
        assert_complete_dump(path);
    }
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
                let shared = &shared;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let _ = forced_deadlock(i, shared);
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
