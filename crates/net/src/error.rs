//! Error type for the foundational network layer.

use std::fmt;

/// Errors produced while parsing or validating network-layer values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A CIDR prefix length outside `0..=32` was supplied.
    InvalidPrefixLen(u8),
    /// A textual prefix could not be parsed.
    InvalidPrefixSyntax(String),
    /// A timestamp fell outside the study window it was binned against.
    OutOfWindow {
        /// The offending timestamp (seconds since the simulation epoch).
        ts: u64,
        /// Start of the window (inclusive).
        start: u64,
        /// End of the window (exclusive).
        end: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidPrefixLen(l) => write!(f, "invalid IPv4 prefix length /{l}"),
            NetError::InvalidPrefixSyntax(s) => write!(f, "invalid prefix syntax: {s:?}"),
            NetError::OutOfWindow { ts, start, end } => {
                write!(f, "timestamp {ts} outside study window [{start}, {end})")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(
            NetError::InvalidPrefixLen(40).to_string(),
            "invalid IPv4 prefix length /40"
        );
        let e = NetError::OutOfWindow {
            ts: 7,
            start: 10,
            end: 20,
        };
        assert!(e.to_string().contains("outside study window"));
    }
}
