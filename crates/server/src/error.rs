//! Typed admission errors: every way a job description can be rejected
//! *before* it touches the shared worker pool.
//!
//! The library crates downstack already grew fallible `try_*` constructors
//! ([`Topology::try_csr`](logit_graphs::Topology::try_csr),
//! [`BetaLadder::try_geometric`](logit_anneal::BetaLadder::try_geometric),
//! [`CoordinationGame::try_new`](logit_games::CoordinationGame::try_new),
//! [`IsingGame::try_new`](logit_games::IsingGame::try_new));
//! this enum is where their typed errors — plus the server's own field and
//! limit checks — converge into one value a client can read off a
//! `REJECTED` frame. A malformed job must never panic a pool worker: the
//! admission path is fully fallible, and the executor keeps a
//! `catch_unwind` backstop for anything that slips through.

use logit_anneal::LadderError;
use logit_games::{CoordinationError, IsingError};
use logit_graphs::CsrIndexError;
use std::fmt;

/// Why a submitted job was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// A required field was absent from the job description.
    MissingField(&'static str),
    /// A field the grammar does not know.
    UnknownField(String),
    /// A field failed to parse or violated a server limit.
    BadValue { field: &'static str, reason: String },
    /// The payoffs do not describe a coordination game.
    Coordination(CoordinationError),
    /// The Ising description is malformed.
    Ising(IsingError),
    /// The interaction graph exceeds the CSR u32 index widths.
    Csr(CsrIndexError),
    /// The β-ladder description is malformed (zero rungs, non-increasing,
    /// non-finite endpoints, …).
    Ladder(LadderError),
    /// The job queue is at capacity; retry later.
    QueueFull,
    /// The connection violated the framing protocol.
    Protocol(String),
}

impl AdmissionError {
    /// Stable machine-readable code, the first token of the `REJECTED`
    /// frame payload.
    pub fn code(&self) -> &'static str {
        match self {
            AdmissionError::MissingField(_) => "missing-field",
            AdmissionError::UnknownField(_) => "unknown-field",
            AdmissionError::BadValue { .. } => "bad-value",
            AdmissionError::Coordination(_) => "coordination",
            AdmissionError::Ising(_) => "ising",
            AdmissionError::Csr(_) => "csr",
            AdmissionError::Ladder(_) => "ladder",
            AdmissionError::QueueFull => "queue-full",
            AdmissionError::Protocol(_) => "protocol",
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::MissingField(field) => {
                write!(f, "{}: job description lacks `{field}`", self.code())
            }
            AdmissionError::UnknownField(field) => {
                write!(f, "{}: unknown field `{field}`", self.code())
            }
            AdmissionError::BadValue { field, reason } => {
                write!(f, "{}: `{field}` {reason}", self.code())
            }
            AdmissionError::Coordination(e) => write!(f, "{}: {e}", self.code()),
            AdmissionError::Ising(e) => write!(f, "{}: {e}", self.code()),
            AdmissionError::Csr(e) => write!(f, "{}: {e}", self.code()),
            AdmissionError::Ladder(e) => write!(f, "{}: {e}", self.code()),
            AdmissionError::QueueFull => {
                write!(
                    f,
                    "{}: the job queue is at capacity, retry later",
                    self.code()
                )
            }
            AdmissionError::Protocol(reason) => write!(f, "{}: {reason}", self.code()),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl From<CoordinationError> for AdmissionError {
    fn from(e: CoordinationError) -> Self {
        AdmissionError::Coordination(e)
    }
}

impl From<IsingError> for AdmissionError {
    fn from(e: IsingError) -> Self {
        AdmissionError::Ising(e)
    }
}

impl From<CsrIndexError> for AdmissionError {
    fn from(e: CsrIndexError) -> Self {
        AdmissionError::Csr(e)
    }
}

impl From<LadderError> for AdmissionError {
    fn from(e: LadderError) -> Self {
        AdmissionError::Ladder(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_messages_are_stable() {
        let e = AdmissionError::BadValue {
            field: "steps",
            reason: "must be at most 1000000000".into(),
        };
        assert_eq!(e.code(), "bad-value");
        assert_eq!(
            e.to_string(),
            "bad-value: `steps` must be at most 1000000000"
        );
        let e = AdmissionError::Ladder(LadderError::NotIncreasing);
        assert_eq!(
            e.to_string(),
            "ladder: the ladder must have room to increase"
        );
        assert_eq!(AdmissionError::QueueFull.code(), "queue-full");
    }
}
