//! The exporter: batches flow records into wire messages.
//!
//! Real exporters resend templates periodically because the transport is
//! unreliable UDP; the reproduction does the same (every
//! [`Exporter::TEMPLATE_REFRESH`] messages and always in the first one), so
//! collector restarts and template-before-data ordering are genuinely
//! exercised.

use crate::error::FlowError;
use crate::ipfix;
use crate::netflow_v9 as v9;
use crate::record::FlowRecord;
use crate::wire::{OptionsTemplate, SamplingOptions, Template};
use bytes::Bytes;

/// Which wire protocol an exporter speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportProtocol {
    /// NetFlow v9 (the ISP's routers).
    NetflowV9,
    /// IPFIX (the IXP's fabric).
    Ipfix,
}

/// A stateful exporter for one observation point.
///
/// ```
/// use haystack_flow::export::{ExportProtocol, Exporter};
/// use haystack_flow::Collector;
///
/// let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7)
///     .with_sampling(1_000, false);
/// let mut collector = Collector::new();
/// for datagram in exporter.export(&[], 100).unwrap() {
///     collector.feed(datagram).unwrap();
/// }
/// // The collector learned the announced sampling rate.
/// assert_eq!(collector.sampling_of(7).unwrap().interval, 1_000);
/// ```
#[derive(Debug)]
pub struct Exporter {
    protocol: ExportProtocol,
    template: Template,
    options_template: OptionsTemplate,
    sampling: Option<SamplingOptions>,
    source_id: u32,
    sequence: u32,
    messages_sent: u64,
    /// Records per message; 30 × 38-byte records + headers stays within a
    /// 1500-byte MTU.
    batch_size: usize,
}

impl Exporter {
    /// Messages between template refreshes.
    pub const TEMPLATE_REFRESH: u64 = 20;

    /// Create an exporter with the workspace-standard template.
    pub fn new(protocol: ExportProtocol, source_id: u32) -> Self {
        Exporter {
            protocol,
            template: Template::standard(256),
            options_template: OptionsTemplate::sampling(512),
            sampling: None,
            source_id,
            sequence: 0,
            messages_sent: 0,
            batch_size: 30,
        }
    }

    /// Override the records-per-message batch size (tests).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_size = n;
        self
    }

    /// Announce the sampling configuration via options data (alongside
    /// every template refresh).
    pub fn with_sampling(mut self, interval: u32, random: bool) -> Self {
        self.sampling = Some(SamplingOptions {
            interval,
            algorithm: if random { 2 } else { 1 },
        });
        self
    }

    /// The exporter's template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Encode `records` into one or more wire messages stamped with export
    /// time `now_secs`.
    pub fn export(
        &mut self,
        records: &[FlowRecord],
        now_secs: u32,
    ) -> Result<Vec<Bytes>, FlowError> {
        let mut out = Vec::with_capacity(records.len() / self.batch_size + 1);
        let mut chunks: Vec<&[FlowRecord]> = records.chunks(self.batch_size).collect();
        if chunks.is_empty() && self.messages_sent == 0 {
            // Nothing to send but the collector still needs the template.
            chunks.push(&[]);
        }
        for chunk in chunks {
            let send_template = self.messages_sent.is_multiple_of(Self::TEMPLATE_REFRESH);
            let templates: &[Template] = if send_template {
                std::slice::from_ref(&self.template)
            } else {
                &[]
            };
            let sampling = if send_template {
                self.sampling.map(|s| (&self.options_template, s))
            } else {
                None
            };
            let msg = match self.protocol {
                ExportProtocol::NetflowV9 => v9::encode_full(
                    &v9::V9Header {
                        sys_uptime_ms: now_secs.saturating_mul(1000),
                        unix_secs: now_secs,
                        sequence: self.sequence,
                        source_id: self.source_id,
                    },
                    templates,
                    &[(&self.template, chunk)],
                    sampling,
                )?,
                ExportProtocol::Ipfix => ipfix::encode_full(
                    &ipfix::IpfixHeader {
                        export_time: now_secs,
                        sequence: self.sequence,
                        domain_id: self.source_id,
                    },
                    templates,
                    &[(&self.template, chunk)],
                    sampling,
                )?,
            };
            self.sequence = self.sequence.wrapping_add(chunk.len() as u32);
            self.messages_sent += 1;
            out.push(msg);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FlowKey;
    use crate::tcp_flags::TcpFlags;
    use haystack_net::ports::Proto;
    use haystack_net::SimTime;
    use std::net::Ipv4Addr;

    fn recs(n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::new(100, 64, (i / 256) as u8, (i % 256) as u8),
                    dst: Ipv4Addr::new(198, 18, 0, 1),
                    sport: 40000,
                    dport: 443,
                    proto: Proto::Tcp,
                },
                packets: 1,
                bytes: 100,
                tcp_flags: TcpFlags::ACK,
                first: SimTime(0),
                last: SimTime(0),
            })
            .collect()
    }

    #[test]
    fn batches_respect_batch_size() {
        let mut e = Exporter::new(ExportProtocol::NetflowV9, 1).with_batch_size(10);
        let msgs = e.export(&recs(25), 100).unwrap();
        assert_eq!(msgs.len(), 3);
    }

    #[test]
    fn first_message_carries_template() {
        let mut e = Exporter::new(ExportProtocol::NetflowV9, 1);
        let msgs = e.export(&recs(1), 100).unwrap();
        let msg = v9::decode(&msgs[0]).unwrap();
        assert!(matches!(msg.flowsets[0], v9::FlowSet::Templates(_)));
    }

    #[test]
    fn template_only_message_when_idle_at_start() {
        let mut e = Exporter::new(ExportProtocol::Ipfix, 1);
        let msgs = e.export(&[], 100).unwrap();
        assert_eq!(msgs.len(), 1);
        let msg = ipfix::decode(&msgs[0]).unwrap();
        assert!(matches!(msg.sets[0], ipfix::Set::Templates(_)));
    }

    #[test]
    fn sequence_advances_by_record_count() {
        let mut e = Exporter::new(ExportProtocol::NetflowV9, 1).with_batch_size(10);
        e.export(&recs(10), 100).unwrap();
        let msgs = e.export(&recs(1), 101).unwrap();
        let msg = v9::decode(&msgs[0]).unwrap();
        assert_eq!(msg.header.sequence, 10);
    }

    #[test]
    fn messages_fit_mtu() {
        let mut e = Exporter::new(ExportProtocol::Ipfix, 1);
        let msgs = e.export(&recs(120), 100).unwrap();
        assert!(msgs.iter().all(|m| m.len() <= 1500), "datagram exceeds MTU");
    }
}
