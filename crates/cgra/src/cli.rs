//! Shared CLI conventions: typed exit codes, failure rendering, and
//! the machine-readable error JSON shape.
//!
//! Every binary in the workspace that surfaces a [`MapError`] to a
//! shell or a script must agree on the mapping from failure kind to
//! process exit code and on the JSON error shape — `cgra-map`,
//! `cgra-report`, and `cgra-serve` each used to be one copied `match`
//! away from drifting. This module is the single copy.
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | generic failure (I/O, internal) |
//! | 2 | usage error |
//! | 3 | mapping proven/suspected infeasible |
//! | 4 | mapping budget exhausted |
//! | 5 | mapping cancelled |
//! | 6 | unsupported feature / unknown mapper or kernel |

use cgra_mapper_core::MapError;

/// Generic failure (I/O error, internal invariant violation).
pub const EXIT_FAILURE: u8 = 1;
/// Bad command line.
pub const EXIT_USAGE: u8 = 2;
/// [`MapError::Infeasible`].
pub const EXIT_INFEASIBLE: u8 = 3;
/// [`MapError::Timeout`].
pub const EXIT_TIMEOUT: u8 = 4;
/// [`MapError::Cancelled`].
pub const EXIT_CANCELLED: u8 = 5;
/// [`MapError::Unsupported`].
pub const EXIT_UNSUPPORTED: u8 = 6;

/// The process exit code for a typed mapping failure.
pub fn exit_code(err: &MapError) -> u8 {
    match err {
        MapError::Infeasible(_) => EXIT_INFEASIBLE,
        MapError::Timeout => EXIT_TIMEOUT,
        MapError::Cancelled => EXIT_CANCELLED,
        MapError::Unsupported(_) => EXIT_UNSUPPORTED,
    }
}

/// Human-readable rendering of a mapping failure, with the diagnosis
/// appended when failure forensics produced one (`--explain`).
pub fn failure_message(err: &MapError) -> String {
    let mut msg = format!("mapping failed: {err}");
    if let Some(d) = err.diagnosis() {
        msg.push('\n');
        msg.push_str(&d.render());
    }
    msg
}

/// A CLI failure: message plus process exit code.
pub struct CliError {
    pub msg: String,
    pub code: u8,
}

impl CliError {
    /// A usage error (exit 2).
    pub fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            msg: msg.into(),
            code: EXIT_USAGE,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError {
            msg,
            code: EXIT_FAILURE,
        }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        msg.to_string().into()
    }
}

impl From<&MapError> for CliError {
    fn from(err: &MapError) -> Self {
        CliError {
            msg: failure_message(err),
            code: exit_code(err),
        }
    }
}

impl From<MapError> for CliError {
    fn from(err: MapError) -> Self {
        (&err).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let errs = [
            MapError::infeasible("x"),
            MapError::Timeout,
            MapError::Cancelled,
            MapError::Unsupported("y".into()),
        ];
        let codes: Vec<u8> = errs.iter().map(exit_code).collect();
        assert_eq!(codes, vec![3, 4, 5, 6]);
        for e in &errs {
            let c: CliError = e.into();
            assert_eq!(c.code, exit_code(e));
            assert!(c.msg.contains("mapping failed"));
        }
    }
}
