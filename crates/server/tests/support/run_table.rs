// `/run` requests and what the server answers them: (query, body,
// status, the error body's message or "" for a 200). One row per
// malformed request the suite sends, plus misspelled keys and keys that
// do not apply. Included by `tests/server.rs`, which sends every row,
// and by the unit tests of `src/handlers.rs`, which mutate them.

/// The crash every recovery test injects.
const CRASH: &str =
    r#"{"recovery": {"max_attempts": 1}, "faults": {"seed": 5, "crash_rank": 1, "crash_op": 1}}"#;

const RUN_TABLE: [(&str, &str, u16, &str); 34] = [
    ("alg=warp&n1=10&n2=5", "", 400, "alg = \"warp\": must be 1d, 2d, 3d or auto"),
    ("alg=1d&n1=4000&n2=4000&p=2", "", 413, "n1*n2 = 16000000 exceeds this server's run cap of 1048576 cells"),
    ("alg=2d&n1=36&n2=8&c=18446744073709551557", "", 413, "plan needs 18446744073709551615 ranks, over this server's run cap of 4096"),
    ("alg=3d&n1=36&n2=8&c=3&p2=4611686018427387905", "", 413, "plan needs 18446744073709551615 ranks, over this server's run cap of 4096"),
    ("alg=2d&n1=36&n2=8&c=10", "", 422, "run failed: invalid SYRK plan: no triangle block construction for c = 10 (need a prime power)"),
    ("alg=1d&n1=16&n2=8&p=2", "{not json", 400, "malformed JSON body: expected '\"' at offset 1"),
    ("alg=1d&n1=16&n2=8&p=2", r#"{"recovery": {"max_attempts": 0}}"#, 400, "max_attempts = \"0\": must be an integer ≥ 1"),
    ("alg=1d&n1=16&n2=8&p=2", r#"{"recovery": {"max_attempts": "three"}}"#, 400, "max_attempts = \"\\\"three\\\"\": must be an integer ≥ 1"),
    ("alg=1d&n1=16&n2=8&p=2", r#"{"recovery": 7}"#, 400, "body field \"recovery\" must be an object"),
    ("alg=1d&n1=16&n2=8&p=2", r#"{"faults": {"crash_rank": -1}}"#, 400, "crash_rank = \"-1\": must be an integer ≥ 0"),
    ("alg=1d&n1=16&n2=8&p=4", r#"{"recovery": {"max_attempts": 1}, "faults": {"crash_rank": 2, "crash_op": 1}}"#, 422, "run failed after 1 attempt(s): machine failure: rank 2: injected crash after 0 operations"),
    ("alg=2d&n1=36&n2=8&c=3", CRASH, 422, "run failed after 1 attempt(s): machine failure: rank 1: injected crash after 0 operations"),
    ("alg=2d&n1=36&n2=8&c=3&fault_seed=5&crash_rank=1&crash_op=1&max_attempts=1", "", 422, "run failed after 1 attempt(s): machine failure: rank 1: injected crash after 0 operations"),
    ("n1=36&n2=8", "", 400, "p: needed by this alg"),
    ("alg=2d&n2=8&c=3", "", 400, "missing query parameter \"n1\""),
    ("alg=2d&n1=1&n2=8&c=3", "", 422, "n1 must be at least 2"),
    ("alg=2d&n1=36&n2=8&c=3&seed=x", "", 400, "query parameter \"seed\" must be an integer, got \"x\""),
    ("alg=2d&n1=36&n2=8", "", 400, "c: needed by this alg"),
    ("alg=2d&n1=36&n2=8&c=0", "", 400, "c = \"0\": must be an integer ≥ 1"),
    ("alg=3d&n1=36&n2=8&c=3", "", 400, "p2: needed by this alg"),
    ("alg=auto&n1=36&n2=8&p=999999999", "", 413, "p = \"999999999\" exceeds the planning cap of 1000000"),
    ("alg=1d&n1=16&n2=8&p=5000", "", 413, "plan needs 5000 ranks, over this server's run cap of 4096"),
    ("alg=2d&n1=36&n2=8&c=3&max_attempts=0", "", 400, "max_attempts = \"0\": must be an integer ≥ 1"),
    // Misspelled, misplaced and unbounded keys.
    ("alg=2d&n1=36&n2=8&c=3&crash_rnk=1", "", 400, "crash_rnk = \"1\": unknown key"),
    ("alg=2d&n1=36&n2=8&c=3", r#"{"faults": {"crash_rnak": 3}}"#, 400, "faults.crash_rnak = \"3\": unknown key"),
    ("alg=2d&n1=36&n2=8&c=3", r#"{"extra": 1}"#, 400, "body field \"extra\" must be an object"),
    ("alg=2d&n1=36&n2=8&c=3", "[1]", 400, "body must be a JSON object"),
    ("alg=2d&n1=36&n2=8&c=3&p=12", "", 400, "p = \"12\": unused by this alg"),
    ("alg=2d&n1=36&n2=8&c=3&crash_op=2", "", 200, ""),
    ("alg=2d&n1=36&n2=8&c=3", r#"{"faults": {"seed": 5}}"#, 200, ""),
    ("alg=2d&n1=36&n2=8&c=3&drop=1&retries=4294967295", "", 400, "retries = \"4294967295\": must be an integer ≤ 64"),
    // A repeated key reads its last value, as every run key does.
    ("alg=2d&n1=36&n1=1&n2=8&c=3", "", 422, "n1 must be at least 2"),
    ("alg=2d&n1=36&n2=8&c=3&seed=7&seed=x", "", 400, "query parameter \"seed\" must be an integer, got \"x\""),
    ("alg=2d&n1=36&n2=8&c=3&seed=x&seed=7", "", 200, ""),
];
