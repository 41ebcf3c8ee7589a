//! Errors for the flow pipeline and the wire codecs.

use std::fmt;

/// Errors produced while encoding or decoding NetFlow v9 / IPFIX messages,
/// or by pipeline misconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// Message shorter than its own header or declared length.
    Truncated {
        /// What was being decoded.
        context: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// Version field was not 9 (NetFlow) / 10 (IPFIX).
    BadVersion {
        /// Expected protocol version.
        expected: u16,
        /// Version found on the wire.
        found: u16,
    },
    /// A data set referenced a template the collector has not seen.
    UnknownTemplate {
        /// Exporter observation domain / source id.
        source_id: u32,
        /// The unknown template id.
        template_id: u16,
    },
    /// A template declared an unsupported field type or length.
    UnsupportedField {
        /// IANA information-element / field-type id.
        field: u16,
        /// Declared length.
        len: u16,
    },
    /// A template id outside the data range (`< 256`) was used for data.
    ReservedTemplateId(u16),
    /// Set/flowset length field was inconsistent (too short, not covering
    /// its own header, or overrunning the message).
    BadSetLength {
        /// Declared length.
        declared: u16,
        /// Remaining bytes in the message.
        remaining: usize,
    },
    /// A template with zero fields was declared.
    EmptyTemplate(u16),
    /// A sampler was configured with an invalid rate.
    BadSamplingRate(u64),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Truncated {
                context,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated {context}: need {needed} bytes, have {available}"
                )
            }
            FlowError::BadVersion { expected, found } => {
                write!(f, "bad version: expected {expected}, found {found}")
            }
            FlowError::UnknownTemplate {
                source_id,
                template_id,
            } => {
                write!(
                    f,
                    "data set references unknown template {template_id} (source {source_id})"
                )
            }
            FlowError::UnsupportedField { field, len } => {
                write!(f, "unsupported field type {field} with length {len}")
            }
            FlowError::ReservedTemplateId(id) => {
                write!(f, "template id {id} is in the reserved range (< 256)")
            }
            FlowError::BadSetLength {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "bad set length {declared} with {remaining} bytes remaining"
                )
            }
            FlowError::EmptyTemplate(id) => write!(f, "template {id} declares zero fields"),
            FlowError::BadSamplingRate(n) => write!(f, "invalid sampling rate 1/{n}"),
        }
    }
}

impl std::error::Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = FlowError::UnknownTemplate {
            source_id: 7,
            template_id: 300,
        };
        assert!(e.to_string().contains("unknown template 300"));
        assert!(FlowError::BadSamplingRate(0).to_string().contains("1/0"));
    }
}
