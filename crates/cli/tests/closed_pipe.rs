//! A closed pipe on stdout or stderr ends `aos` with its documented
//! exit code, never a panic's 101.
//!
//! Each case hands the child the write end of a pipe whose read end is
//! already closed, so the child's first write fails with `EPIPE`
//! whatever the scheduling.

use std::process::{Command, Stdio};

/// Runs `aos args` with `stdout` (or, if `on_stderr`, `stderr`)
/// connected to a pipe nobody reads, the other stream discarded.
fn exit_code_with_closed_pipe(args: &[&str], on_stderr: bool) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let mut command = Command::new(env!("CARGO_BIN_EXE_aos"));
    command.args(args).stdin(Stdio::null());
    if on_stderr {
        command.stdout(Stdio::null()).stderr(writer);
    } else {
        command.stdout(writer).stderr(Stdio::null());
    }
    command.status().expect("spawn aos").code()
}

#[test]
fn closed_stdout_keeps_the_commands_exit_code() {
    let code = exit_code_with_closed_pipe(&["workloads"], false);
    assert_ne!(code, Some(101), "a closed stdout panicked");
    assert_eq!(code, Some(0));
}

#[test]
fn closed_stderr_keeps_the_usage_exit_code() {
    // A flag followed by another flag: a usage error, reported on
    // stderr with exit 2.
    let code = exit_code_with_closed_pipe(&["run", "mcf", "--json", "--scale", "0.01"], true);
    assert_ne!(code, Some(101), "a closed stderr panicked");
    assert_eq!(code, Some(2));
}
