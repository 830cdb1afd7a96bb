//! The `continuum` binary reports unwritable output paths as errors
//! instead of panicking.

use std::process::Command;

/// Run the CLI with `args`; assert it exits 1 with a clean error.
fn assert_write_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_continuum"))
        .args(args)
        .output()
        .expect("spawn continuum");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "args {args:?}; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "args {args:?}; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("error: writing "),
        "args {args:?}; stderr:\n{stderr}"
    );
}

#[test]
fn unwritable_trace_path_is_an_error_not_a_panic() {
    // A directory is never writable as a file.
    let dir = env!("CARGO_MANIFEST_DIR");
    assert_write_error(&["run", "--workload", "pipeline", "--trace", dir]);
}

#[test]
fn unwritable_flight_recorder_path_is_an_error_not_a_panic() {
    let dir = env!("CARGO_MANIFEST_DIR");
    assert_write_error(&["saturate", "--requests", "200", "--flight-recorder", dir]);
}
