//! The supervisor ↔ worker wire: one flat-JSON object per line.
//!
//! The shard wire reuses the classification service's protocol layer
//! ([`lcl_service::protocol`]) for framing: every command and reply is
//! a single newline-terminated flat JSON object. Structured payloads —
//! halo batches, fault lists, event streams — ride inside string
//! fields using two reserved control characters (`\u{1e}` between
//! entries, `\u{1f}` between fields of an entry), which the protocol's
//! escaper round-trips losslessly as ``/``.
//!
//! Everything on this wire is plain data: halo payloads are encoded by
//! the only processes that know the message type (the workers), and
//! the supervisor routes them as opaque strings. That is what keeps
//! the supervisor non-generic over algorithms.

use std::io::{BufRead, Write};

use lcl_faults::NodeFault;
use lcl_obs::Event;
use lcl_service::protocol::{escape_into, parse_flat_object, Scalar};
use lcl_service::push_str_field;

use crate::spec::{AlgSpec, GraphSpec, InputSpec};

/// Entry separator inside packed string fields (fault lists, events).
pub const ENTRY_SEP: char = '\u{1e}';
/// Field separator inside one packed entry.
pub const FIELD_SEP: char = '\u{1f}';

/// Writes one protocol line (appends the newline) and flushes.
pub fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one protocol line; `Ok(None)` is a clean EOF (peer closed).
pub fn read_line(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Reads and parses one line into flat fields; EOF and malformed lines
/// surface as `Err` strings the caller attributes to the peer.
pub fn read_fields(r: &mut impl BufRead) -> Result<Vec<(String, Scalar)>, String> {
    match read_line(r) {
        Ok(Some(line)) => parse_flat_object(&line).map_err(|e| e.to_string()),
        Ok(None) => Err("peer closed the connection".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// Appends `,"name":value` for an unsigned number.
pub fn push_num_field(out: &mut String, name: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    push_decimal(out, value);
}

/// Appends `,"name":"value"` with escaping.
pub fn push_text_field(out: &mut String, name: &str, value: &str) {
    out.push(',');
    push_str_field(out, name, value);
}

/// Appends `,"name":true|false`.
pub fn push_bool_field(out: &mut String, name: &str, value: bool) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    out.push_str(if value { "true" } else { "false" });
}

/// Starts a command/reply line: `{"op":"<op>"`.
pub fn open_line(op: &str) -> String {
    let mut out = String::from("{\"op\":\"");
    escape_into(&mut out, op);
    out.push('"');
    out
}

/// Looks up a required string field.
pub fn want_str(fields: &[(String, Scalar)], name: &'static str) -> Result<String, String> {
    want_text(fields, name).map(str::to_owned)
}

/// Looks up a required string field without copying it (for the large
/// payloads: ids, labels, halos).
pub(crate) fn want_text<'a>(
    fields: &'a [(String, Scalar)],
    name: &'static str,
) -> Result<&'a str, String> {
    lcl_service::protocol::get_text(fields, name).map_err(|e| e.to_string())
}

/// Looks up a required number field.
pub fn want_num(fields: &[(String, Scalar)], name: &'static str) -> Result<u64, String> {
    lcl_service::protocol::get_num(fields, name).map_err(|e| e.to_string())
}

/// Narrows a wire number to the type it names, as a typed error rather
/// than a silent `as` truncation.
pub(crate) fn narrow<T: TryFrom<u64>>(name: &str, value: u64) -> Result<T, String> {
    T::try_from(value).map_err(|_| {
        format!(
            "field {name} = {value} is out of range for {}",
            std::any::type_name::<T>()
        )
    })
}

/// Looks up a required number field that must fit `T`.
pub(crate) fn want_int<T: TryFrom<u64>>(
    fields: &[(String, Scalar)],
    name: &'static str,
) -> Result<T, String> {
    narrow(name, want_num(fields, name)?)
}

/// Looks up a required bool field.
pub fn want_bool(fields: &[(String, Scalar)], name: &'static str) -> Result<bool, String> {
    match fields.iter().find(|(n, _)| n == name) {
        Some((_, Scalar::Bool(b))) => Ok(*b),
        Some(_) => Err(format!("field {name} must be a bool")),
        None => Err(format!("field {name} is required")),
    }
}

/// Looks up an optional number field.
pub fn maybe_num(fields: &[(String, Scalar)], name: &str) -> Option<u64> {
    fields.iter().find_map(|(n, v)| match v {
        Scalar::Num(x) if n == name => Some(*x),
        _ => None,
    })
}

/// A message type that can cross the shard wire. Encodings must not
/// contain `,`, `|`, `>`, `_`, or the reserved control characters.
pub trait WireMsg: Clone {
    /// Appends this message's encoding.
    fn encode(&self, out: &mut String);
    /// Parses one encoded message.
    fn decode(text: &str) -> Option<Self>;
}

impl WireMsg for u64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }

    fn decode(text: &str) -> Option<Self> {
        text.parse().ok()
    }
}

impl WireMsg for (u64, u32) {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.0.to_string());
        out.push(':');
        out.push_str(&self.1.to_string());
    }

    fn decode(text: &str) -> Option<Self> {
        let (a, b) = text.split_once(':')?;
        Some((a.parse().ok()?, b.parse().ok()?))
    }
}

/// Halo batches are the shard kernel's transport types: outgoing
/// `(destination, payload)` pairs and an inbox keyed by source.
pub use lcl_shard::{HaloBatches, HaloInbox};

/// Encodes halo batches as `peer>e1,e2,..|peer>..`; `_` is a mute
/// (`None`) entry. `peer` is the destination shard in a `computed`
/// reply and the source shard in a `deliver` command.
pub fn encode_batches<M: WireMsg>(batches: &[(usize, Vec<Option<M>>)]) -> String {
    let mut out = String::new();
    for (i, (peer, payload)) in batches.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        out.push_str(&peer.to_string());
        out.push('>');
        for (j, entry) in payload.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match entry {
                Some(m) => m.encode(&mut out),
                None => out.push('_'),
            }
        }
    }
    out
}

/// Decodes halo batches; the inverse of [`encode_batches`].
pub fn decode_batches<M: WireMsg>(text: &str) -> Result<HaloBatches<M>, String> {
    let mut batches = Vec::new();
    if text.is_empty() {
        return Ok(batches);
    }
    for chunk in text.split('|') {
        let (peer, payload) = chunk
            .split_once('>')
            .ok_or_else(|| format!("halo batch {chunk:?} lacks a peer prefix"))?;
        let peer: usize = peer
            .parse()
            .map_err(|_| format!("halo peer {peer:?} is not a shard id"))?;
        let entries = if payload.is_empty() {
            Vec::new()
        } else {
            payload
                .split(',')
                .map(|e| {
                    if e == "_" {
                        Ok(None)
                    } else {
                        M::decode(e)
                            .map(Some)
                            .ok_or_else(|| format!("halo entry {e:?} does not decode"))
                    }
                })
                .collect::<Result<Vec<_>, String>>()?
        };
        batches.push((peer, entries));
    }
    Ok(batches)
}

/// Re-keys decoded batches by peer for inbox assembly.
pub fn batches_to_inbox<M: WireMsg>(batches: HaloBatches<M>) -> HaloInbox<M> {
    batches.into_iter().collect()
}

/// Encodes a drained fault buffer. The payload is the entry's last
/// field, so it may contain anything except the two reserved control
/// characters (which no executor-produced payload contains).
pub fn encode_faults(faults: &[NodeFault]) -> String {
    let mut out = String::new();
    for (i, f) in faults.iter().enumerate() {
        if i > 0 {
            out.push(ENTRY_SEP);
        }
        out.push_str(&f.node.to_string());
        out.push(FIELD_SEP);
        out.push_str(&f.round.to_string());
        out.push(FIELD_SEP);
        out.push_str(&f.payload);
    }
    out
}

/// Decodes a fault buffer; the inverse of [`encode_faults`].
pub fn decode_faults(text: &str) -> Result<Vec<NodeFault>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(ENTRY_SEP)
        .map(|entry| {
            let mut parts = entry.splitn(3, FIELD_SEP);
            let node = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("fault entry {entry:?}: bad node"))?;
            let round = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("fault entry {entry:?}: bad round"))?;
            let payload = parts
                .next()
                .ok_or_else(|| format!("fault entry {entry:?}: missing payload"))?
                .to_string();
            Ok(NodeFault {
                node,
                round,
                payload,
            })
        })
        .collect()
}

/// Encodes crashed-shard flags as a `0`/`1` string indexed by shard.
pub fn encode_flags(flags: &[bool]) -> String {
    flags.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Decodes crashed-shard flags.
pub fn decode_flags(text: &str) -> Result<Vec<bool>, String> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("flag char {other:?} is not 0/1")),
        })
        .collect()
}

/// Maps a wire fault tag back to the executor's `&'static str` tag.
/// The set is closed: both sides are this workspace's executors.
pub fn static_tag(tag: &str) -> Option<&'static str> {
    Some(match tag {
        "panic" => "panic",
        "crash-stop" => "crash-stop",
        "wrong-arity" => "wrong-arity",
        "no-halt" => "no-halt",
        "halo-loss" => "halo-loss",
        "shard-crash" => "shard-crash",
        "shard-kill" => "shard-kill",
        "shard-loss" => "shard-loss",
        "budget" => "budget",
        _ => return None,
    })
}

/// Encodes a worker's private event stream (fault, retry, checkpoint,
/// and shard-step events; the only kinds a shard stream contains).
pub fn encode_events(events: &[Event]) -> String {
    let mut out = String::new();
    let mut first = true;
    for event in events {
        let mut entry = String::new();
        match event {
            Event::Fault { node, round, fault } => {
                entry.push('f');
                for part in [node.to_string(), round.to_string(), (*fault).to_string()] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part);
                }
            }
            Event::Retry {
                stage,
                attempt,
                backoff_ms,
            } => {
                entry.push('r');
                for part in [attempt.to_string(), backoff_ms.to_string(), stage.clone()] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part);
                }
            }
            Event::Checkpoint { stage, completed } => {
                entry.push('c');
                for part in [completed.to_string(), stage.clone()] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part);
                }
            }
            Event::ShardStep {
                shard,
                superstep,
                halo_messages,
                halo_bytes,
            } => {
                entry.push('s');
                for part in [shard, superstep, halo_messages, halo_bytes] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part.to_string());
                }
            }
            // A shard stream never records coordinator-level events.
            _ => continue,
        }
        if !first {
            out.push(ENTRY_SEP);
        }
        first = false;
        out.push_str(&entry);
    }
    out
}

/// Decodes a worker event stream; the inverse of [`encode_events`].
pub fn decode_events(text: &str) -> Result<Vec<Event>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(ENTRY_SEP)
        .map(|entry| {
            let bad = || format!("event entry {entry:?} does not decode");
            let (kind, rest) = entry.split_once(FIELD_SEP).ok_or_else(bad)?;
            match kind {
                "f" => {
                    let mut p = rest.splitn(3, FIELD_SEP);
                    let node = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let round = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let tag = p.next().ok_or_else(bad)?;
                    Ok(Event::Fault {
                        node,
                        round,
                        fault: static_tag(tag).ok_or_else(|| format!("unknown tag {tag:?}"))?,
                    })
                }
                "r" => {
                    let mut p = rest.splitn(3, FIELD_SEP);
                    let attempt = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let backoff_ms = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let stage = p.next().ok_or_else(bad)?.to_string();
                    Ok(Event::Retry {
                        stage,
                        attempt,
                        backoff_ms,
                    })
                }
                "c" => {
                    let mut p = rest.splitn(2, FIELD_SEP);
                    let completed = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let stage = p.next().ok_or_else(bad)?.to_string();
                    Ok(Event::Checkpoint { stage, completed })
                }
                "s" => {
                    let mut p = rest.splitn(4, FIELD_SEP);
                    let mut next = || p.next().and_then(|x| x.parse().ok()).ok_or_else(bad);
                    Ok(Event::ShardStep {
                        shard: next()?,
                        superstep: next()?,
                        halo_messages: next()?,
                        halo_bytes: next()?,
                    })
                }
                _ => Err(bad()),
            }
        })
        .collect()
}

/// Digits in the decimal spelling of `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends the decimal spelling of `v` without allocating.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("why: ASCII digits are UTF-8"));
}

/// Parses one decimal token exactly as [`push_decimal`] spells it: one
/// or more ASCII digits, no sign, no leading zero, at most `max`.
fn parse_decimal(token: &str, max: u64) -> Option<u64> {
    let digits = token.as_bytes();
    if digits.is_empty()
        || (digits.len() > 1 && digits[0] == b'0')
        || !digits.iter().all(u8::is_ascii_digit)
    {
        return None;
    }
    let digit = |b: &u8| u64::from(b - b'0');
    // Nineteen digits cannot overflow a u64; only longer tokens pay for
    // the checked arithmetic.
    let v = if digits.len() < 20 {
        digits.iter().fold(0, |v, b| v * 10 + digit(b))
    } else {
        digits
            .iter()
            .try_fold(0u64, |v, b| v.checked_mul(10)?.checked_add(digit(b)))?
    };
    (v <= max).then_some(v)
}

/// Appends `values` as decimals joined by `,`.
fn push_decimals(out: &mut String, values: impl IntoIterator<Item = u64>) {
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_decimal(out, v);
    }
}

/// Encodes per-node output labels: nodes separated by `;`, port labels
/// by `,`, written into one exactly pre-sized string.
pub fn encode_labels(outputs: &[Vec<lcl::OutLabel>]) -> String {
    let len = outputs.len().saturating_sub(1)
        + outputs
            .iter()
            .map(|node| {
                node.len().saturating_sub(1)
                    + node
                        .iter()
                        .map(|l| decimal_len(u64::from(l.0)))
                        .sum::<usize>()
            })
            .sum::<usize>();
    let mut out = String::with_capacity(len);
    for (i, node) in outputs.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        push_decimals(&mut out, node.iter().map(|l| u64::from(l.0)));
    }
    out
}

/// Decodes per-node output labels; the inverse of [`encode_labels`].
/// Accepts exactly what the encoder emits: a label that is empty,
/// signed, non-decimal, zero-padded or above `u32::MAX` is an error.
pub fn decode_labels(text: &str) -> Result<Vec<Vec<lcl::OutLabel>>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    let mut nodes = Vec::with_capacity(text.bytes().filter(|&b| b == b';').count() + 1);
    for node in text.split(';') {
        let mut labels = Vec::new();
        if !node.is_empty() {
            for l in node.split(',') {
                let v = parse_decimal(l, u64::from(u32::MAX))
                    .ok_or_else(|| format!("label {l:?} is not a u32"))?;
                labels.push(lcl::OutLabel(v as u32));
            }
        }
        nodes.push(labels);
    }
    Ok(nodes)
}

/// Decodes a `,`-joined id list, the `ids` field of [`InitCmd::encode`],
/// with the same token rules as [`decode_labels`].
fn decode_ids(text: &str) -> Result<Vec<u64>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    let mut ids = Vec::with_capacity(text.bytes().filter(|&b| b == b',').count() + 1);
    for token in text.split(',') {
        ids.push(
            parse_decimal(token, u64::MAX).ok_or_else(|| format!("id {token:?} is not a u64"))?,
        );
    }
    Ok(ids)
}

/// The decoded `init` command: everything a worker needs to
/// reconstruct its shard of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InitCmd {
    /// The graph, as a generator call.
    pub graph: GraphSpec,
    /// The algorithm, as a catalog name.
    pub alg: AlgSpec,
    /// The input labeling construction.
    pub input: InputSpec,
    /// The resolved ids of the nodes this worker's shard owns, in node
    /// order: `ids[k]` belongs to the `k`-th node of the shard's range
    /// (any plan permutation already applied). A worker never learns
    /// the other shards' ids, so the ids sent across a run total `n`.
    pub ids: Vec<u64>,
    /// The announced `n`.
    pub n: usize,
    /// Total shard count of the partition.
    pub shards: usize,
    /// This worker's shard id.
    pub shard: usize,
    /// The run-wide fault plan, in `FaultPlan::to_text` form.
    pub plan_text: String,
    /// Test hook: sleep forever at the compute phase of this superstep
    /// (drives deadline-detection and respawn-storm tests).
    pub hang_at: Option<u32>,
}

impl InitCmd {
    /// Renders the `init` command line.
    pub fn encode(&self) -> String {
        let mut out = open_line("init");
        let id_digits: usize = self.ids.iter().map(|&id| decimal_len(id) + 1).sum();
        out.reserve(256 + 2 * self.plan_text.len() + id_digits);
        let (g, g1, g2, g3) = match self.graph {
            GraphSpec::Path { n } => ("path", n as u64, 0, 0),
            GraphSpec::RandomTree {
                n,
                max_degree,
                seed,
            } => ("tree", n as u64, u64::from(max_degree), seed),
            GraphSpec::Caterpillar { spine, legs } => ("caterpillar", spine as u64, legs as u64, 0),
            GraphSpec::Star { leaves } => ("star", leaves as u64, 0, 0),
        };
        push_text_field(&mut out, "graph", g);
        push_num_field(&mut out, "g1", g1);
        push_num_field(&mut out, "g2", g2);
        push_num_field(&mut out, "g3", g3);
        let (a, k) = match self.alg {
            AlgSpec::GuardedFlood { k } => ("flood", u64::from(k)),
            AlgSpec::AntiMatchingE1 { delta } => ("am-e1", u64::from(delta)),
        };
        push_text_field(&mut out, "alg", a);
        push_num_field(&mut out, "alg_k", k);
        let InputSpec::Uniform = self.input;
        push_text_field(&mut out, "input", "uniform");
        // Digits and commas need no escaping, so the ids go straight in.
        out.push_str(",\"ids\":\"");
        push_decimals(&mut out, self.ids.iter().copied());
        out.push('"');
        push_num_field(&mut out, "n", self.n as u64);
        push_num_field(&mut out, "shards", self.shards as u64);
        push_num_field(&mut out, "shard", self.shard as u64);
        push_text_field(&mut out, "plan", &self.plan_text);
        if let Some(h) = self.hang_at {
            push_num_field(&mut out, "hang_at", u64::from(h));
        }
        out.push('}');
        out
    }

    /// Parses an `init` command's fields; the inverse of
    /// [`InitCmd::encode`].
    pub fn parse(fields: &[(String, Scalar)]) -> Result<Self, String> {
        let g1 = want_num(fields, "g1")?;
        let g2 = want_num(fields, "g2")?;
        let g3 = want_num(fields, "g3")?;
        let graph = match want_text(fields, "graph")? {
            "path" => GraphSpec::Path {
                n: narrow("g1", g1)?,
            },
            "tree" => GraphSpec::RandomTree {
                n: narrow("g1", g1)?,
                max_degree: u8::try_from(g2).map_err(|_| "tree degree overflows u8".to_string())?,
                seed: g3,
            },
            "caterpillar" => GraphSpec::Caterpillar {
                spine: narrow("g1", g1)?,
                legs: narrow("g2", g2)?,
            },
            "star" => GraphSpec::Star {
                leaves: narrow("g1", g1)?,
            },
            other => return Err(format!("unknown graph spec {other:?}")),
        };
        let k = want_num(fields, "alg_k")?;
        let alg = match want_text(fields, "alg")? {
            "flood" => AlgSpec::GuardedFlood {
                k: narrow("alg_k", k)?,
            },
            "am-e1" => AlgSpec::AntiMatchingE1 {
                delta: u8::try_from(k).map_err(|_| "delta overflows u8".to_string())?,
            },
            other => return Err(format!("unknown alg spec {other:?}")),
        };
        let input = match want_text(fields, "input")? {
            "uniform" => InputSpec::Uniform,
            other => return Err(format!("unknown input spec {other:?}")),
        };
        Ok(Self {
            graph,
            alg,
            input,
            ids: decode_ids(want_text(fields, "ids")?)?,
            n: want_int(fields, "n")?,
            shards: want_int(fields, "shards")?,
            shard: want_int(fields, "shard")?,
            plan_text: want_str(fields, "plan")?,
            hang_at: maybe_num(fields, "hang_at")
                .map(|h| narrow("hang_at", h))
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_round_trip_for_both_message_types() {
        let flood: Vec<(usize, Vec<Option<u64>>)> =
            vec![(0, vec![Some(7), None, Some(9)]), (2, vec![None])];
        let text = encode_batches(&flood);
        assert_eq!(text, "0>7,_,9|2>_");
        assert_eq!(decode_batches::<u64>(&text).unwrap(), flood);

        let lifted: HaloBatches<(u64, u32)> = vec![(1, vec![Some((42, 3)), None])];
        let text = encode_batches(&lifted);
        assert_eq!(text, "1>42:3,_");
        assert_eq!(decode_batches::<(u64, u32)>(&text).unwrap(), lifted);

        assert_eq!(decode_batches::<u64>("").unwrap(), vec![]);
        assert!(decode_batches::<u64>("nope").is_err());
        assert!(decode_batches::<u64>("0>x").is_err());
    }

    #[test]
    fn faults_round_trip_including_awkward_payloads() {
        let faults = vec![
            NodeFault {
                node: 3,
                round: 1,
                payload: "crash-stop".into(),
            },
            NodeFault {
                node: 9,
                round: 0,
                payload: "panicked: \"quoted\", with, commas\nand newlines".into(),
            },
        ];
        let text = encode_faults(&faults);
        assert_eq!(decode_faults(&text).unwrap(), faults);
        assert_eq!(decode_faults("").unwrap(), vec![]);
        assert!(decode_faults("justonefield").is_err());
    }

    #[test]
    fn events_round_trip_with_static_tags() {
        let events = vec![
            Event::Fault {
                node: 4,
                round: 2,
                fault: "halo-loss",
            },
            Event::Retry {
                stage: "shard/1".into(),
                attempt: 2,
                backoff_ms: 20,
            },
            Event::Checkpoint {
                stage: "shard/0".into(),
                completed: 3,
            },
            Event::ShardStep {
                shard: 1,
                superstep: 3,
                halo_messages: 5,
                halo_bytes: 40,
            },
        ];
        let text = encode_events(&events);
        assert_eq!(decode_events(&text).unwrap(), events);
        // Coordinator events are skipped on encode, not shipped.
        let skipped = encode_events(&[Event::RoundStart { round: 1 }]);
        assert_eq!(skipped, "");
        assert!(decode_events("f\u{1f}1\u{1f}2\u{1f}mystery-tag").is_err());
    }

    #[test]
    fn labels_round_trip_including_degree_zero_nodes() {
        let labels = vec![
            vec![lcl::OutLabel(1), lcl::OutLabel(0)],
            vec![],
            vec![lcl::OutLabel(7)],
        ];
        let text = encode_labels(&labels);
        assert_eq!(text, "1,0;;7");
        assert_eq!(decode_labels(&text).unwrap(), labels);
    }

    #[test]
    fn init_command_round_trips_through_the_protocol_layer() {
        let cmd = InitCmd {
            graph: GraphSpec::RandomTree {
                n: 64,
                max_degree: 3,
                seed: 5,
            },
            alg: AlgSpec::AntiMatchingE1 { delta: 3 },
            input: InputSpec::Uniform,
            ids: vec![10, 20, 30],
            n: 64,
            shards: 4,
            shard: 2,
            plan_text: "plan seed=7\ncrash node=0 round=1\n".into(),
            hang_at: Some(1),
        };
        let line = cmd.encode();
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(want_str(&fields, "op").unwrap(), "init");
        assert_eq!(InitCmd::parse(&fields).unwrap(), cmd);

        let no_hang = InitCmd {
            hang_at: None,
            plan_text: String::new(),
            ..cmd
        };
        let fields = parse_flat_object(&no_hang.encode()).unwrap();
        assert_eq!(InitCmd::parse(&fields).unwrap(), no_hang);
    }

    #[test]
    fn flags_round_trip() {
        let flags = vec![false, true, true, false];
        let text = encode_flags(&flags);
        assert_eq!(text, "0110");
        assert_eq!(decode_flags(&text).unwrap(), flags);
        assert!(decode_flags("01x").is_err());
    }

    /// Seeded ids spanning every decimal length, with the extremes.
    fn seeded_ids(seed: u64, count: usize) -> Vec<u64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut ids: Vec<u64> = (0..count)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state >> (state % 64)
            })
            .collect();
        ids.extend([0, 1, 9, 10, u64::from(u32::MAX), u64::MAX - 1, u64::MAX]);
        ids
    }

    fn flood_init(ids: Vec<u64>) -> InitCmd {
        InitCmd {
            graph: GraphSpec::Path { n: ids.len() },
            alg: AlgSpec::GuardedFlood { k: 2 },
            input: InputSpec::Uniform,
            n: ids.len(),
            ids,
            shards: 1,
            shard: 0,
            plan_text: String::new(),
            hang_at: None,
        }
    }

    #[test]
    fn id_codec_matches_the_joined_decimal_reference() {
        for seed in 1..=4 {
            for ids in [seeded_ids(seed, 300), vec![], vec![0], vec![u64::MAX]] {
                let cmd = flood_init(ids.clone());
                let fields = parse_flat_object(&cmd.encode()).unwrap();
                let reference: Vec<String> = ids.iter().map(u64::to_string).collect();
                assert_eq!(want_text(&fields, "ids").unwrap(), reference.join(","));
                assert_eq!(InitCmd::parse(&fields).unwrap(), cmd);
            }
        }
    }

    #[test]
    fn label_codec_matches_the_joined_decimal_reference() {
        for seed in 1..=4 {
            let pool = seeded_ids(seed, 200);
            let mut labels: Vec<Vec<lcl::OutLabel>> = Vec::new();
            for (i, chunk) in pool.chunks(3).enumerate() {
                // Every fourth node has degree 0.
                let degree = if i % 4 == 0 { 0 } else { chunk.len() };
                labels.push(
                    chunk[..degree]
                        .iter()
                        .map(|&x| lcl::OutLabel(x as u32))
                        .collect(),
                );
            }
            labels.push(vec![lcl::OutLabel(u32::MAX), lcl::OutLabel(0)]);
            let reference: Vec<String> = labels
                .iter()
                .map(|node| {
                    let node: Vec<String> = node.iter().map(|l| l.0.to_string()).collect();
                    node.join(",")
                })
                .collect();
            let text = encode_labels(&labels);
            assert_eq!(text, reference.join(";"));
            assert_eq!(text.capacity(), text.len(), "pre-sized exactly");
            assert_eq!(decode_labels(&text).unwrap(), labels);
        }
        assert_eq!(encode_labels(&[]), "");
        assert_eq!(decode_labels("").unwrap(), Vec::<Vec<lcl::OutLabel>>::new());
        assert_eq!(decode_labels(";").unwrap(), vec![vec![], vec![]]);
    }

    #[test]
    fn malformed_decimal_tokens_are_rejected_with_typed_errors() {
        for bad in [
            ",",
            "1,",
            ",1",
            "1,,2",
            "+1",
            "-1",
            "1a",
            " 1",
            "1 ",
            "01",
            "00",
            "0x1",
            "18446744073709551616",
            "99999999999999999999",
            "184467440737095516150",
            "１",
        ] {
            let err = decode_ids(bad).expect_err(bad);
            assert!(
                err.starts_with("id \"") && err.ends_with("\" is not a u64"),
                "{err}"
            );
        }
        for bad in ["1,", "1;+2", "-0", "4294967296", "1;01", "1,,2", "x"] {
            let err = decode_labels(bad).expect_err(bad);
            assert!(
                err.starts_with("label \"") && err.ends_with("\" is not a u32"),
                "{err}"
            );
        }
        // What std's parser would let through must not pass here.
        assert!(decode_ids("+5").is_err());
        assert_eq!(
            decode_ids("0,18446744073709551615").unwrap(),
            vec![0, u64::MAX]
        );
    }

    #[test]
    fn out_of_range_numbers_are_rejected_not_truncated() {
        let cmd = flood_init(vec![5, 6]);
        let line = cmd.encode();
        assert!(line.contains("\"alg_k\":2,"));
        // k = 2^32 + 2 would have run as k = 2 under an `as u32`.
        let wrapped = line.replace("\"alg_k\":2,", "\"alg_k\":4294967298,");
        let err = InitCmd::parse(&parse_flat_object(&wrapped).unwrap()).unwrap_err();
        assert_eq!(err, "field alg_k = 4294967298 is out of range for u32");
        let hang = line.replace('}', ",\"hang_at\":4294967296}");
        let err = InitCmd::parse(&parse_flat_object(&hang).unwrap()).unwrap_err();
        assert_eq!(err, "field hang_at = 4294967296 is out of range for u32");
        assert_eq!(narrow::<u32>("round", u64::from(u32::MAX)), Ok(u32::MAX));
    }
}
