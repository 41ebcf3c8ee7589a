//! Template machinery shared by the NetFlow v9 and IPFIX codecs.
//!
//! Both protocols describe data records with *templates*: ordered lists of
//! (field-type, length) pairs. The field-type numbers below are the IANA
//! assignments common to NetFlow v9 (RFC 3954 §8) and the IPFIX information
//! elements (RFC 7012), which deliberately share the low number space.
//!
//! Deviation from the RFCs, documented once here: `FIRST_SWITCHED` /
//! `LAST_SWITCHED` carry **seconds since the simulation epoch** rather than
//! router sysuptime milliseconds — the simulation has no router uptime, and
//! every consumer wants absolute simulated time.

use crate::error::FlowError;
use crate::key::FlowKey;
use crate::record::FlowRecord;
use crate::tcp_flags::TcpFlags;
use crate::{ipfix, netflow_v9 as v9};
use bytes::{Buf, BufMut, BytesMut};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::net::Ipv4Addr;

/// IN_BYTES — sampled byte count.
pub const FIELD_IN_BYTES: u16 = 1;
/// IN_PKTS — sampled packet count.
pub const FIELD_IN_PKTS: u16 = 2;
/// PROTOCOL — IANA transport protocol number.
pub const FIELD_PROTOCOL: u16 = 4;
/// TCP_FLAGS — cumulative OR of TCP flags.
pub const FIELD_TCP_FLAGS: u16 = 6;
/// L4_SRC_PORT.
pub const FIELD_L4_SRC_PORT: u16 = 7;
/// IPV4_SRC_ADDR.
pub const FIELD_IPV4_SRC_ADDR: u16 = 8;
/// L4_DST_PORT.
pub const FIELD_L4_DST_PORT: u16 = 11;
/// IPV4_DST_ADDR.
pub const FIELD_IPV4_DST_ADDR: u16 = 12;
/// LAST_SWITCHED (see module docs for the timestamp convention).
pub const FIELD_LAST_SWITCHED: u16 = 21;
/// FIRST_SWITCHED (see module docs for the timestamp convention).
pub const FIELD_FIRST_SWITCHED: u16 = 22;
/// SAMPLING_INTERVAL — the 1-in-N packet sampling denominator, announced
/// via options data (§2.1's "consistent sampling rate" is learned by the
/// collector from exactly this element).
pub const FIELD_SAMPLING_INTERVAL: u16 = 34;
/// SAMPLING_ALGORITHM — 1 = deterministic (systematic), 2 = random.
pub const FIELD_SAMPLING_ALGORITHM: u16 = 35;
/// Scope field type: "System" (NetFlow v9 options scope).
pub const SCOPE_SYSTEM: u16 = 1;

/// One template field: IANA type and on-wire length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateField {
    /// IANA field type / information element id.
    pub id: u16,
    /// Encoded length in bytes.
    pub len: u16,
}

/// A (data) template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Template id; must be ≥ 256 (the RFCs reserve lower ids for special
    /// sets).
    pub id: u16,
    /// Ordered field list.
    pub fields: Vec<TemplateField>,
}

impl Template {
    /// The workspace-standard flow template used by both vantage points.
    pub fn standard(id: u16) -> Template {
        Template {
            id,
            fields: vec![
                TemplateField {
                    id: FIELD_IPV4_SRC_ADDR,
                    len: 4,
                },
                TemplateField {
                    id: FIELD_IPV4_DST_ADDR,
                    len: 4,
                },
                TemplateField {
                    id: FIELD_L4_SRC_PORT,
                    len: 2,
                },
                TemplateField {
                    id: FIELD_L4_DST_PORT,
                    len: 2,
                },
                TemplateField {
                    id: FIELD_PROTOCOL,
                    len: 1,
                },
                TemplateField {
                    id: FIELD_TCP_FLAGS,
                    len: 1,
                },
                TemplateField {
                    id: FIELD_IN_PKTS,
                    len: 8,
                },
                TemplateField {
                    id: FIELD_IN_BYTES,
                    len: 8,
                },
                TemplateField {
                    id: FIELD_FIRST_SWITCHED,
                    len: 4,
                },
                TemplateField {
                    id: FIELD_LAST_SWITCHED,
                    len: 4,
                },
            ],
        }
    }

    /// Bytes of one encoded record under this template.
    pub fn record_len(&self) -> usize {
        self.fields.iter().map(|f| usize::from(f.len)).sum()
    }

    /// Validate the template: data-range id, non-empty, and every field a
    /// supported (type, length) combination.
    pub fn validate(&self) -> Result<(), FlowError> {
        if self.id < 256 {
            return Err(FlowError::ReservedTemplateId(self.id));
        }
        if self.fields.is_empty() {
            return Err(FlowError::EmptyTemplate(self.id));
        }
        check_fields(self.fields.iter().copied())
    }

    /// Compile the template into its fixed-offset [`DecodePlan`].
    pub fn plan(&self) -> DecodePlan {
        let mut plan = DecodePlan::default();
        for f in &self.fields {
            let width = usize::from(f.len);
            // Later occurrences overwrite earlier ones, as in the field
            // walk of `decode_record`. A known field at a width
            // `validate` rejects is skipped like an unknown one.
            if let Some((slot, widths)) = known_field(f.id) {
                if widths.contains(&f.len) {
                    plan.slots[slot] = Slot {
                        off: plan.record_len,
                        width,
                    };
                }
            }
            plan.record_len += width;
        }
        plan
    }

    /// Encode the template *body* (template id, field count, fields) —
    /// identical in NetFlow v9 template flowsets and IPFIX template sets.
    pub fn encode_body(&self, buf: &mut BytesMut) {
        buf.put_u16(self.id);
        buf.put_u16(self.fields.len() as u16);
        for f in &self.fields {
            buf.put_u16(f.id);
            buf.put_u16(f.len);
        }
    }

    /// Parse one template body from `buf`, advancing it.
    pub fn parse_body(buf: &mut impl Buf) -> Result<Template, FlowError> {
        let mut body = buf.chunk();
        let t = TemplateRef::parse(&mut body)?.to_template();
        let used = buf.remaining() - body.len();
        buf.advance(used);
        Ok(t)
    }

    /// Encode one record under this template.
    pub fn encode_record(&self, rec: &FlowRecord, buf: &mut BytesMut) {
        for f in &self.fields {
            match f.id {
                FIELD_IPV4_SRC_ADDR => buf.put_u32(u32::from(rec.key.src)),
                FIELD_IPV4_DST_ADDR => buf.put_u32(u32::from(rec.key.dst)),
                FIELD_L4_SRC_PORT => buf.put_u16(rec.key.sport),
                FIELD_L4_DST_PORT => buf.put_u16(rec.key.dport),
                FIELD_PROTOCOL => buf.put_u8(rec.key.proto.number()),
                FIELD_TCP_FLAGS => buf.put_u8(rec.tcp_flags.0),
                FIELD_IN_PKTS => put_uint(buf, rec.packets, f.len),
                FIELD_IN_BYTES => put_uint(buf, rec.bytes, f.len),
                FIELD_FIRST_SWITCHED => buf.put_u32(rec.first.0 as u32),
                FIELD_LAST_SWITCHED => buf.put_u32(rec.last.0 as u32),
                _ => buf.put_bytes(0, usize::from(f.len)),
            }
        }
    }

    /// Decode one record under this template, advancing `buf`. Unknown
    /// fields are skipped; absent key fields default to zero (documented
    /// collector behaviour — the standard template always carries them).
    ///
    /// This field walk is the reference the compiled [`DecodePlan`] is
    /// tested against; data sets are decoded through the plan.
    pub fn decode_record(&self, buf: &mut impl Buf) -> Result<FlowRecord, FlowError> {
        let need = self.record_len();
        if buf.remaining() < need {
            return Err(FlowError::Truncated {
                context: "data record",
                needed: need,
                available: buf.remaining(),
            });
        }
        let mut src = Ipv4Addr::UNSPECIFIED;
        let mut dst = Ipv4Addr::UNSPECIFIED;
        let (mut sport, mut dport) = (0u16, 0u16);
        let mut proto = Proto::Tcp;
        let mut flags = TcpFlags::NONE;
        let (mut packets, mut bytes) = (0u64, 0u64);
        let (mut first, mut last) = (0u32, 0u32);
        for f in &self.fields {
            match f.id {
                FIELD_IPV4_SRC_ADDR => src = Ipv4Addr::from(buf.get_u32()),
                FIELD_IPV4_DST_ADDR => dst = Ipv4Addr::from(buf.get_u32()),
                FIELD_L4_SRC_PORT => sport = buf.get_u16(),
                FIELD_L4_DST_PORT => dport = buf.get_u16(),
                FIELD_PROTOCOL => {
                    let n = buf.get_u8();
                    proto = Proto::from_number(n).unwrap_or(Proto::Tcp);
                }
                FIELD_TCP_FLAGS => flags = TcpFlags(buf.get_u8()),
                FIELD_IN_PKTS => packets = get_uint(buf, f.len),
                FIELD_IN_BYTES => bytes = get_uint(buf, f.len),
                FIELD_FIRST_SWITCHED => first = buf.get_u32(),
                FIELD_LAST_SWITCHED => last = buf.get_u32(),
                _ => buf.advance(usize::from(f.len)),
            }
        }
        Ok(FlowRecord {
            key: FlowKey {
                src,
                dst,
                sport,
                dport,
                proto,
            },
            packets,
            bytes,
            tcp_flags: flags,
            first: SimTime(u64::from(first)),
            last: SimTime(u64::from(last)),
        })
    }
}

/// Every known field at a length the decoder supports. Unknown
/// information elements are legal on the wire; the decoder skips them, so
/// any length is acceptable.
fn check_fields(fields: impl Iterator<Item = TemplateField>) -> Result<(), FlowError> {
    for f in fields {
        if known_field(f.id).is_some_and(|(_, widths)| !widths.contains(&f.len)) {
            return Err(FlowError::UnsupportedField {
                field: f.id,
                len: f.len,
            });
        }
    }
    Ok(())
}

/// A template body still on the wire: checked like a [`Template`], not
/// yet copied into one. Exporters re-announce their templates every few
/// messages; the collector compares the refresh in place
/// ([`TemplateRef::describes`]) and copies only a layout it has not
/// cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateRef<'a> {
    /// Template id (≥ 256).
    pub id: u16,
    /// The `(type, length)` pairs, four bytes each.
    fields: &'a [u8],
}

impl<'a> TemplateRef<'a> {
    /// Parse and validate one template body (template id, field count,
    /// fields) from the front of `buf`, advancing it.
    pub fn parse(buf: &mut &'a [u8]) -> Result<TemplateRef<'a>, FlowError> {
        if buf.len() < 4 {
            return Err(FlowError::Truncated {
                context: "template header",
                needed: 4,
                available: buf.len(),
            });
        }
        let (id, count) = (be16(buf, 0), usize::from(be16(buf, 2)));
        if count == 0 {
            return Err(FlowError::EmptyTemplate(id));
        }
        let rest = &buf[4..];
        if rest.len() < count * 4 {
            return Err(FlowError::Truncated {
                context: "template fields",
                needed: count * 4,
                available: rest.len(),
            });
        }
        if id < 256 {
            return Err(FlowError::ReservedTemplateId(id));
        }
        let (fields, rest) = rest.split_at(count * 4);
        let t = TemplateRef { id, fields };
        check_fields(t.fields())?;
        *buf = rest;
        Ok(t)
    }

    /// The fields in template order.
    pub fn fields(&self) -> impl Iterator<Item = TemplateField> + 'a {
        self.fields.chunks_exact(4).map(|f| TemplateField {
            id: be16(f, 0),
            len: be16(f, 2),
        })
    }

    /// Whether `t` is this very template: same id, same fields.
    pub fn describes(&self, t: &Template) -> bool {
        self.id == t.id && self.fields().eq(t.fields.iter().copied())
    }

    /// Copy into an owned [`Template`].
    pub fn to_template(&self) -> Template {
        Template {
            id: self.id,
            fields: self.fields().collect(),
        }
    }
}

// Slot indices of the ten fields a `FlowRecord` is built from.
const SRC: usize = 0;
const DST: usize = 1;
const SPORT: usize = 2;
const DPORT: usize = 3;
const PROTO: usize = 4;
const FLAGS: usize = 5;
const PKTS: usize = 6;
const BYTES: usize = 7;
const FIRST: usize = 8;
const LAST: usize = 9;

/// The decoder's view of a field type: its [`DecodePlan`] slot and the
/// on-wire lengths it supports. `None` for fields the decoder skips.
fn known_field(id: u16) -> Option<(usize, &'static [u16])> {
    Some(match id {
        FIELD_IPV4_SRC_ADDR => (SRC, &[4]),
        FIELD_IPV4_DST_ADDR => (DST, &[4]),
        FIELD_L4_SRC_PORT => (SPORT, &[2]),
        FIELD_L4_DST_PORT => (DPORT, &[2]),
        FIELD_PROTOCOL => (PROTO, &[1]),
        FIELD_TCP_FLAGS => (FLAGS, &[1]),
        FIELD_IN_PKTS => (PKTS, &[1, 2, 4, 8]),
        FIELD_IN_BYTES => (BYTES, &[1, 2, 4, 8]),
        FIELD_FIRST_SWITCHED => (FIRST, &[4]),
        FIELD_LAST_SWITCHED => (LAST, &[4]),
        _ => return None,
    })
}

/// Where one known field sits in an encoded record. Width 0: the template
/// does not carry the field, and it decodes as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    off: usize,
    width: usize,
}

impl Slot {
    #[inline(always)]
    fn load(self, rec: &[u8]) -> u64 {
        match rec.get(self.off..self.off + self.width) {
            Some(&[a]) => u64::from(a),
            Some(&[a, b]) => u64::from(u16::from_be_bytes([a, b])),
            Some(&[a, b, c, d]) => u64::from(u32::from_be_bytes([a, b, c, d])),
            Some(&[a, b, c, d, e, f, g, h]) => u64::from_be_bytes([a, b, c, d, e, f, g, h]),
            _ => 0,
        }
    }
}

/// A [`Template`] compiled once into fixed offsets ([`Template::plan`]):
/// the record length and, for each field a [`FlowRecord`] is built from,
/// where it sits. Decoding a data set is then one pass over
/// `record_len`-sized chunks with direct big-endian loads. Fields are
/// private: every slot lies inside `record_len` by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodePlan {
    record_len: usize,
    slots: [Slot; 10],
}

impl DecodePlan {
    /// Bytes of one encoded record.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Decode every record of a data-set body, returning how many, and
    /// append to `out` those whose raw `(dst, dport)` the admission
    /// predicate `keep` accepts. Only the two key slots are loaded for a
    /// record `keep` turns away; the full [`FlowRecord`] is built for
    /// survivors alone. Trailing bytes shorter than one record are the
    /// RFC-mandated alignment padding and are ignored; a zero-length
    /// record decodes nothing.
    pub fn decode_into(
        &self,
        body: &[u8],
        out: &mut Vec<FlowRecord>,
        mut keep: impl FnMut(Ipv4Addr, u16) -> bool,
    ) -> usize {
        if self.record_len == 0 {
            return 0;
        }
        let records = body.chunks_exact(self.record_len);
        let n = records.len();
        for (i, rec) in records.enumerate() {
            let dst = Ipv4Addr::from(self.slots[DST].load(rec) as u32);
            let dport = self.slots[DPORT].load(rec) as u16;
            if keep(dst, dport) {
                // One growth per set at most, as `extend` would: room for
                // the rest of the set, taken at the first survivor that
                // needs it, so a set of misses never allocates.
                if out.len() == out.capacity() {
                    out.reserve(n - i);
                }
                out.push(self.decode(rec, dst, dport));
            }
        }
        n
    }

    /// The rest of a record whose key slots `decode_into` already loaded.
    #[inline(always)]
    fn decode(&self, rec: &[u8], dst: Ipv4Addr, dport: u16) -> FlowRecord {
        let field = |slot: usize| self.slots[slot].load(rec);
        FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::from(field(SRC) as u32),
                dst,
                sport: field(SPORT) as u16,
                dport,
                proto: Proto::from_number(field(PROTO) as u8).unwrap_or(Proto::Tcp),
            },
            packets: field(PKTS),
            bytes: field(BYTES),
            tcp_flags: TcpFlags(field(FLAGS) as u8),
            first: SimTime(field(FIRST)),
            last: SimTime(field(LAST)),
        }
    }
}

/// An options template: scope fields describing *what* the options apply
/// to (we scope to the exporting system) plus the option fields
/// themselves. Used to announce the sampling configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsTemplate {
    /// Template id (≥ 256, shares the data-template id space).
    pub id: u16,
    /// Scope fields (type, length); we emit a single System scope.
    pub scope_fields: Vec<TemplateField>,
    /// Option fields.
    pub option_fields: Vec<TemplateField>,
}

/// The sampling configuration carried in options data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingOptions {
    /// 1-in-N denominator.
    pub interval: u32,
    /// 1 = deterministic/systematic, 2 = random.
    pub algorithm: u8,
}

impl OptionsTemplate {
    /// The workspace-standard sampling options template.
    pub fn sampling(id: u16) -> OptionsTemplate {
        OptionsTemplate {
            id,
            scope_fields: vec![TemplateField {
                id: SCOPE_SYSTEM,
                len: 4,
            }],
            option_fields: vec![
                TemplateField {
                    id: FIELD_SAMPLING_INTERVAL,
                    len: 4,
                },
                TemplateField {
                    id: FIELD_SAMPLING_ALGORITHM,
                    len: 1,
                },
            ],
        }
    }

    /// Bytes of one encoded options record.
    pub fn record_len(&self) -> usize {
        self.scope_fields
            .iter()
            .chain(&self.option_fields)
            .map(|f| usize::from(f.len))
            .sum()
    }

    /// Encode the template body, NetFlow v9 layout: id, scope length in
    /// *bytes*, options length in *bytes*, then the fields.
    pub fn encode_body_v9(&self, buf: &mut BytesMut) {
        buf.put_u16(self.id);
        buf.put_u16(self.scope_fields.len() as u16 * 4);
        buf.put_u16(self.option_fields.len() as u16 * 4);
        for f in self.scope_fields.iter().chain(&self.option_fields) {
            buf.put_u16(f.id);
            buf.put_u16(f.len);
        }
    }

    /// Parse a v9 options-template body.
    pub fn parse_body_v9(buf: &mut impl Buf) -> Result<OptionsTemplate, FlowError> {
        if buf.remaining() < 6 {
            return Err(FlowError::Truncated {
                context: "options template header",
                needed: 6,
                available: buf.remaining(),
            });
        }
        let id = buf.get_u16();
        let scope_bytes = usize::from(buf.get_u16());
        let option_bytes = usize::from(buf.get_u16());
        if scope_bytes % 4 != 0 || option_bytes % 4 != 0 {
            return Err(FlowError::UnsupportedField {
                field: 0,
                len: scope_bytes as u16,
            });
        }
        let total = scope_bytes / 4 + option_bytes / 4;
        if buf.remaining() < total * 4 {
            return Err(FlowError::Truncated {
                context: "options template fields",
                needed: total * 4,
                available: buf.remaining(),
            });
        }
        let mut fields = Vec::with_capacity(total);
        for _ in 0..total {
            fields.push(TemplateField {
                id: buf.get_u16(),
                len: buf.get_u16(),
            });
        }
        let option_fields = fields.split_off(scope_bytes / 4);
        Ok(OptionsTemplate {
            id,
            scope_fields: fields,
            option_fields,
        })
    }

    /// Encode the template body, IPFIX layout (RFC 7011 §3.4.2.2): id,
    /// total field count, scope field count, then scope fields followed
    /// by option fields.
    pub fn encode_body_ipfix(&self, buf: &mut BytesMut) {
        buf.put_u16(self.id);
        buf.put_u16((self.scope_fields.len() + self.option_fields.len()) as u16);
        buf.put_u16(self.scope_fields.len() as u16);
        for f in self.scope_fields.iter().chain(&self.option_fields) {
            buf.put_u16(f.id);
            buf.put_u16(f.len);
        }
    }

    /// Parse an IPFIX options-template body.
    pub fn parse_body_ipfix(buf: &mut impl Buf) -> Result<OptionsTemplate, FlowError> {
        if buf.remaining() < 6 {
            return Err(FlowError::Truncated {
                context: "options template header",
                needed: 6,
                available: buf.remaining(),
            });
        }
        let id = buf.get_u16();
        let total = usize::from(buf.get_u16());
        let scope_count = usize::from(buf.get_u16());
        if scope_count > total {
            return Err(FlowError::UnsupportedField {
                field: 0,
                len: scope_count as u16,
            });
        }
        if buf.remaining() < total * 4 {
            return Err(FlowError::Truncated {
                context: "options template fields",
                needed: total * 4,
                available: buf.remaining(),
            });
        }
        let mut fields = Vec::with_capacity(total);
        for _ in 0..total {
            fields.push(TemplateField {
                id: buf.get_u16(),
                len: buf.get_u16(),
            });
        }
        let option_fields = fields.split_off(scope_count);
        Ok(OptionsTemplate {
            id,
            scope_fields: fields,
            option_fields,
        })
    }

    /// Encode one sampling-options record under this template.
    pub fn encode_sampling(&self, source_id: u32, s: &SamplingOptions, buf: &mut BytesMut) {
        for f in self.scope_fields.iter().chain(&self.option_fields) {
            match f.id {
                SCOPE_SYSTEM => put_uint(buf, u64::from(source_id), f.len),
                FIELD_SAMPLING_INTERVAL => put_uint(buf, u64::from(s.interval), f.len),
                FIELD_SAMPLING_ALGORITHM => put_uint(buf, u64::from(s.algorithm), f.len),
                _ => buf.put_bytes(0, usize::from(f.len)),
            }
        }
    }

    /// Decode one sampling-options record; unknown fields are skipped.
    pub fn decode_sampling(&self, buf: &mut impl Buf) -> Result<SamplingOptions, FlowError> {
        let need = self.record_len();
        if buf.remaining() < need {
            return Err(FlowError::Truncated {
                context: "options record",
                needed: need,
                available: buf.remaining(),
            });
        }
        let mut out = SamplingOptions {
            interval: 1,
            algorithm: 1,
        };
        for f in self.scope_fields.iter().chain(&self.option_fields) {
            match f.id {
                FIELD_SAMPLING_INTERVAL => out.interval = get_uint(buf, f.len) as u32,
                FIELD_SAMPLING_ALGORITHM => out.algorithm = get_uint(buf, f.len) as u8,
                _ => buf.advance(usize::from(f.len)),
            }
        }
        Ok(out)
    }
}

/// Decode every record in a data-set body (see
/// [`DecodePlan::decode_into`]; callers decoding more than one set under
/// the same template compile the plan once instead).
pub fn decode_records(t: &Template, body: &[u8]) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    t.plan().decode_into(body, &mut out, |_, _| true);
    out
}

/// Which of the two templated protocols a message body is in: they
/// differ in the ids of the template sets and in the options-template
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dialect {
    V9,
    Ipfix,
}

/// One set of a NetFlow v9 / IPFIX message. Template sets parse as they
/// are iterated; data is left raw for whoever owns the template cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Set<'a> {
    /// The templates announced in a template set.
    Templates(TemplateRefs<'a>),
    /// The options templates announced in an options-template set
    /// (sampling announcements).
    OptionsTemplates(OptionsTemplates<'a>),
    /// A data set: records for `template_id`, still encoded. The
    /// collector decides whether the id names a data or options template.
    Data {
        /// The describing template's id.
        template_id: u16,
        /// Raw record bytes (including any alignment padding).
        body: &'a [u8],
    },
}

/// The template bodies of one template set. Stops at the first malformed
/// one; trailing bytes too short for a template header are padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateRefs<'a>(&'a [u8]);

impl<'a> Iterator for TemplateRefs<'a> {
    type Item = Result<TemplateRef<'a>, FlowError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.0.len() < 4 {
            return None;
        }
        let t = TemplateRef::parse(&mut self.0);
        if t.is_err() {
            self.0 = &[];
        }
        Some(t)
    }
}

/// The options templates of one options-template set, as
/// [`TemplateRefs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsTemplates<'a> {
    body: &'a [u8],
    dialect: Dialect,
}

impl Iterator for OptionsTemplates<'_> {
    type Item = Result<OptionsTemplate, FlowError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.body.len() < 6 {
            return None;
        }
        let t = match self.dialect {
            Dialect::V9 => OptionsTemplate::parse_body_v9(&mut self.body),
            Dialect::Ipfix => OptionsTemplate::parse_body_ipfix(&mut self.body),
        };
        if t.is_err() {
            self.body = &[];
        }
        Some(t)
    }
}

/// The sets of one message, split lazily in wire order; the walk stops at
/// the first malformed set. [`Sets::validate`] runs the whole walk ahead
/// of time, so that a message can be checked before any of it is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sets<'a> {
    rest: &'a [u8],
    dialect: Dialect,
}

impl<'a> Sets<'a> {
    /// Walk `rest`, everything after the message header.
    pub(crate) fn new(rest: &'a [u8], dialect: Dialect) -> Sets<'a> {
        Sets { rest, dialect }
    }

    /// Check every set and every template in them, consuming nothing and
    /// allocating nothing for data and template sets.
    pub fn validate(&self) -> Result<(), FlowError> {
        for set in self.clone() {
            match set? {
                Set::Templates(mut ts) => ts.try_for_each(|t| t.map(drop))?,
                Set::OptionsTemplates(mut ts) => ts.try_for_each(|t| t.map(drop))?,
                Set::Data { .. } => {}
            }
        }
        Ok(())
    }

    fn split_next(&mut self) -> Result<Set<'a>, FlowError> {
        let (id, declared) = (be16(self.rest, 0), be16(self.rest, 2));
        let rest = &self.rest[4..];
        if declared < 4 || usize::from(declared) - 4 > rest.len() {
            return Err(FlowError::BadSetLength {
                declared,
                remaining: rest.len(),
            });
        }
        let (body, rest) = rest.split_at(usize::from(declared) - 4);
        self.rest = rest;
        let (template_set, options_template_set) = match self.dialect {
            Dialect::V9 => (v9::TEMPLATE_FLOWSET_ID, v9::OPTIONS_TEMPLATE_FLOWSET_ID),
            Dialect::Ipfix => (ipfix::TEMPLATE_SET_ID, ipfix::OPTIONS_TEMPLATE_SET_ID),
        };
        match id {
            id if id == template_set => Ok(Set::Templates(TemplateRefs(body))),
            id if id == options_template_set => Ok(Set::OptionsTemplates(OptionsTemplates {
                body,
                dialect: self.dialect,
            })),
            id if id >= 256 => Ok(Set::Data {
                template_id: id,
                body,
            }),
            id => Err(FlowError::ReservedTemplateId(id)),
        }
    }
}

impl<'a> Iterator for Sets<'a> {
    type Item = Result<Set<'a>, FlowError>;

    fn next(&mut self) -> Option<Self::Item> {
        // Fewer than a set header's worth of trailing bytes is padding.
        if self.rest.len() < 4 {
            return None;
        }
        let set = self.split_next();
        if set.is_err() {
            self.rest = &[];
        }
        Some(set)
    }
}

/// Big-endian `u16` at `at`; callers have checked the length.
pub(crate) fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

/// Big-endian `u32` at `at`; callers have checked the length.
pub(crate) fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn put_uint(buf: &mut BytesMut, v: u64, len: u16) {
    match len {
        1 => buf.put_u8(v as u8),
        2 => buf.put_u16(v as u16),
        4 => buf.put_u32(v as u32),
        _ => buf.put_u64(v),
    }
}

fn get_uint(buf: &mut impl Buf, len: u16) -> u64 {
    match len {
        1 => u64::from(buf.get_u8()),
        2 => u64::from(buf.get_u16()),
        4 => u64::from(buf.get_u32()),
        8 => buf.get_u64(),
        // Options templates are not held to the integer widths data
        // templates are: skip what the field declares, no more, and read
        // it as zero.
        _ => {
            buf.advance(usize::from(len));
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::new(100, 64, 1, 2),
                dst: Ipv4Addr::new(198, 18, 0, 9),
                sport: 50123,
                dport: 443,
                proto: Proto::Tcp,
            },
            packets: 12,
            bytes: 3456,
            tcp_flags: TcpFlags::ACK,
            first: SimTime(1000),
            last: SimTime(1010),
        }
    }

    #[test]
    fn standard_template_round_trip() {
        let t = Template::standard(256);
        t.validate().unwrap();
        let mut buf = BytesMut::new();
        t.encode_record(&rec(), &mut buf);
        assert_eq!(buf.len(), t.record_len());
        let decoded = t.decode_record(&mut buf.freeze()).unwrap();
        assert_eq!(decoded, rec());
    }

    #[test]
    fn template_body_round_trip() {
        let t = Template::standard(300);
        let mut buf = BytesMut::new();
        t.encode_body(&mut buf);
        let parsed = Template::parse_body(&mut buf.freeze()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn narrow_counters_round_trip() {
        let mut t = Template::standard(256);
        for f in &mut t.fields {
            if f.id == FIELD_IN_PKTS || f.id == FIELD_IN_BYTES {
                f.len = 4;
            }
        }
        t.validate().unwrap();
        let mut buf = BytesMut::new();
        t.encode_record(&rec(), &mut buf);
        let decoded = t.decode_record(&mut buf.freeze()).unwrap();
        assert_eq!(decoded.packets, 12);
        assert_eq!(decoded.bytes, 3456);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let mut t = Template::standard(256);
        t.fields.push(TemplateField { id: 999, len: 6 }); // vendor junk
        t.validate().unwrap();
        let mut buf = BytesMut::new();
        t.encode_record(&rec(), &mut buf);
        assert_eq!(buf.len(), t.record_len());
        let decoded = t.decode_record(&mut buf.freeze()).unwrap();
        assert_eq!(decoded, rec());
    }

    #[test]
    fn validation_rejects_bad_templates() {
        assert_eq!(
            Template {
                id: 100,
                fields: vec![]
            }
            .validate(),
            Err(FlowError::ReservedTemplateId(100))
        );
        assert_eq!(
            Template {
                id: 256,
                fields: vec![]
            }
            .validate(),
            Err(FlowError::EmptyTemplate(256))
        );
        let bad = Template {
            id: 256,
            fields: vec![TemplateField {
                id: FIELD_IPV4_SRC_ADDR,
                len: 3,
            }],
        };
        assert!(matches!(
            bad.validate(),
            Err(FlowError::UnsupportedField { field: 8, len: 3 })
        ));
    }

    #[test]
    fn truncated_record_detected() {
        let t = Template::standard(256);
        let mut buf = BytesMut::new();
        t.encode_record(&rec(), &mut buf);
        let mut short = buf.freeze().slice(0..10);
        assert!(matches!(
            t.decode_record(&mut short),
            Err(FlowError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_template_detected() {
        let t = Template::standard(256);
        let mut buf = BytesMut::new();
        t.encode_body(&mut buf);
        let full = buf.freeze();
        let mut short = full.slice(0..3);
        assert!(Template::parse_body(&mut short).is_err());
        let mut short2 = full.slice(0..8);
        assert!(Template::parse_body(&mut short2).is_err());
    }

    #[test]
    fn udp_record_round_trips() {
        let mut r = rec();
        r.key.proto = Proto::Udp;
        r.tcp_flags = TcpFlags::NONE;
        let t = Template::standard(256);
        let mut buf = BytesMut::new();
        t.encode_record(&r, &mut buf);
        assert_eq!(t.decode_record(&mut buf.freeze()).unwrap(), r);
    }
}
