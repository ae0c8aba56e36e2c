//! The shared error taxonomy for the AOS workspace.
//!
//! Every crate in the pipeline speaks its own precise error language
//! (`HeapError`, `AosException`, `MemorySafetyError`, …); [`AosError`]
//! is the common denominator those converge to at subsystem
//! boundaries — the CLI, the fault harness, the corpus store — so a
//! malformed trace or flag surfaces as a typed, printable error
//! instead of a Rust panic. (A panicking campaign cell is a
//! `CellOutcome::Failed` with the panic message, not an `AosError`.)
//!
//! `aos-util` sits at the bottom of the dependency stack, so the
//! variants carry owned strings rather than foreign error types; the
//! `From` impls that lift crate-specific errors into [`AosError`] live
//! in the crates that define those errors.

/// A typed error from any stage of the AOS pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AosError {
    /// Untrusted input (a trace, a CLI flag, a workload profile) was
    /// malformed or out of the accepted domain.
    InvalidInput {
        /// Which input or parser rejected the value.
        context: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A bounded resource (heap arena, HBT associativity, MCQ
    /// capacity) was exhausted and could not be grown further.
    ResourceExhausted {
        /// The resource that ran out.
        resource: String,
        /// The limit and demand involved.
        detail: String,
    },
    /// AOS detected a memory-safety violation (the paper's exception
    /// class: bounds-check, bounds-clear or authentication failure).
    SafetyViolation {
        /// Human-readable diagnosis of the violation.
        detail: String,
    },
    /// Stored state failed an integrity check — a bounds record with a
    /// bad CRC, a trace that decodes to an impossible op.
    Corruption {
        /// The structure that failed validation.
        context: String,
        /// What the check found.
        detail: String,
    },
    /// An I/O failure while reading or writing traces and reports.
    Io {
        /// The path or stream involved.
        context: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
}

impl AosError {
    /// Shorthand for [`AosError::InvalidInput`] from any displayables.
    pub fn invalid_input(context: impl Into<String>, detail: impl std::fmt::Display) -> Self {
        AosError::InvalidInput {
            context: context.into(),
            detail: detail.to_string(),
        }
    }

    /// Shorthand for [`AosError::ResourceExhausted`].
    pub fn exhausted(resource: impl Into<String>, detail: impl std::fmt::Display) -> Self {
        AosError::ResourceExhausted {
            resource: resource.into(),
            detail: detail.to_string(),
        }
    }

    /// Shorthand for [`AosError::Corruption`].
    pub fn corruption(context: impl Into<String>, detail: impl std::fmt::Display) -> Self {
        AosError::Corruption {
            context: context.into(),
            detail: detail.to_string(),
        }
    }
}

impl std::fmt::Display for AosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AosError::InvalidInput { context, detail } => {
                write!(f, "invalid input in {context}: {detail}")
            }
            AosError::ResourceExhausted { resource, detail } => {
                write!(f, "{resource} exhausted: {detail}")
            }
            AosError::SafetyViolation { detail } => {
                write!(f, "memory-safety violation: {detail}")
            }
            AosError::Corruption { context, detail } => {
                write!(f, "corrupted {context}: {detail}")
            }
            AosError::Io { context, detail } => {
                write!(f, "i/o error on {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for AosError {}

impl From<std::io::Error> for AosError {
    fn from(e: std::io::Error) -> Self {
        AosError::Io {
            context: String::from("<unknown>"),
            detail: e.to_string(),
        }
    }
}

/// Renders a `catch_unwind` payload as the panic message, falling back
/// to a placeholder for non-string payloads.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string panic payload>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AosError::invalid_input("trace decoder", "opcode 0x99");
        assert_eq!(e.to_string(), "invalid input in trace decoder: opcode 0x99");
        let e = AosError::exhausted("HBT", "128 ways at max");
        assert!(e.to_string().contains("HBT exhausted"));
        let e = AosError::SafetyViolation {
            detail: String::from("oob store"),
        };
        assert!(e.to_string().contains("violation"));
        let e = AosError::corruption("bounds record", "CRC mismatch");
        assert!(e.to_string().contains("corrupted bounds record"));
    }

    #[test]
    fn io_errors_lift() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = AosError::from(io);
        assert!(matches!(e, AosError::Io { .. }));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn panic_payloads_render() {
        let err = std::panic::catch_unwind(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "boom 42");
        let err = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "<non-string panic payload>");
    }
}
