//! The binary wire codec: length-prefixed, CRC-framed messages for all six
//! verbs, negotiated per connection with a magic-byte handshake.
//!
//! # Frame layout
//!
//! ```text
//! | len: u32 LE | crc32: u32 LE | payload: len bytes |
//! ```
//!
//! `crc32` is [`stage_core::persist::crc32`] over the payload — the same
//! IEEE polynomial the artefact store's sections use, so a frame damaged in
//! flight (or torn by fault injection) is detected before decode, exactly
//! like a damaged artefact is detected before restore. `len` is bounded by
//! [`MAX_FRAME_LEN`]; an oversized header is a framing error, never an
//! allocation.
//!
//! # Handshake
//!
//! A client that wants the binary codec opens its connection with the four
//! [`HANDSHAKE`] bytes (`C0 DE <version> 00`); the server echoes them as
//! the acknowledgement and both sides speak frames from then on. The first
//! byte can never begin a JSON request (those start with `{` or `"`), so a
//! connection that sends anything else is served newline-JSON — old
//! clients and `netcat | jq` debugging keep working unchanged.
//!
//! # Payload encoding
//!
//! Hand-rolled and fixed: a leading tag byte selects the variant, fields
//! follow in declaration order. Integers are little-endian, `f64`s travel
//! as their IEEE-754 bit patterns (`to_bits`/`from_bits`, so predictions
//! round-trip **bit-identically** — the cross-codec differential tests in
//! `tests/serve_integration.rs` depend on this), enums as their stable one-hot/declaration
//! index, options as a presence byte, and vectors/strings as a `u32` count
//! followed by the elements. Plan trees serialize pre-order with a child
//! count per node; decode enforces [`MAX_PLAN_DEPTH`] so a hostile frame
//! cannot overflow the stack.
//!
//! The crate root's lint levels deny every panicking construct here,
//! indexing included: decoding is driven by untrusted bytes, so every read
//! is bounds-checked and every malformed input maps to
//! `io::ErrorKind::InvalidData` (`tests/hostile_bytes.rs` overwrites every
//! word of every verb's payload to hold decoders to it).

use crate::protocol::{BatchPrediction, Request, Response};
use stage_core::persist::crc32;
use stage_core::{DegradedStats, PredictionSource, RoutingStats};
use stage_plan::{OperatorKind, PhysicalPlan, PlanNode, QueryType, S3Format};
use std::io::{self, Read};

/// Binary protocol version, carried in the handshake's third byte.
pub const WIRE_VERSION: u8 = 1;

/// The four-byte preamble a binary-codec client sends on connect and the
/// server echoes back: magic `C0 DE`, then the version, then a reserved
/// zero byte. `0xC0` cannot begin a JSON request, which is what makes the
/// per-connection negotiation unambiguous.
pub const HANDSHAKE: [u8; 4] = [0xC0, 0xDE, WIRE_VERSION, 0x00];

/// Upper bound on a frame's payload length. Large enough for any real
/// batch, small enough that a corrupt or hostile length header is refused
/// instead of honoured with a giant allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Maximum plan-tree nesting accepted by the decoder (the encoder never
/// produces plans this deep; the bound exists so a crafted frame cannot
/// recurse the decoder off the stack).
pub const MAX_PLAN_DEPTH: usize = 256;

// --- request/response tags (stable; append-only) --------------------------

const REQ_PREDICT: u8 = 0;
const REQ_PREDICT_BATCH: u8 = 1;
const REQ_OBSERVE: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SNAPSHOT: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

const RESP_PREDICTED: u8 = 0;
const RESP_PREDICTIONS_BATCH: u8 = 1;
const RESP_OBSERVED: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_SNAPSHOTTED: u8 = 4;
const RESP_SHUTTING_DOWN: u8 = 5;
const RESP_OVERLOADED: u8 = 6;
const RESP_TIMED_OUT: u8 = 7;
const RESP_ERROR: u8 = 8;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("binary codec: {what}"))
}

// --- primitive writers -----------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    // Bit pattern, not a decimal rendering: NaNs, signed zeros, and the
    // last ulp all survive, which is what makes cross-codec answers
    // comparable with `to_bits` equality.
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            put_u8(out, 1);
            put_f64(out, x);
        }
        None => put_u8(out, 0),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_u32(out, xs.len() as u32);
    for &x in xs {
        put_f64(out, x);
    }
}

// --- primitive reader ------------------------------------------------------

/// A bounds-checked cursor over one frame's payload.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| bad("length overflow"))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| bad("truncated payload"))?;
        self.pos = end;
        Ok(slice)
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after message"))
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        let s = self.take(1)?;
        s.first().copied().ok_or_else(|| bad("truncated payload"))
    }

    fn u32(&mut self) -> io::Result<u32> {
        let mut a = [0u8; 4];
        a.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("bool byte out of range")),
        }
    }

    fn opt_f64(&mut self) -> io::Result<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(bad("option byte out of range")),
        }
    }

    /// Reads a `u32` element count and sanity-bounds it against the bytes
    /// actually remaining (each element occupies at least `min_elem_size`
    /// bytes), so a corrupt count cannot drive a huge pre-allocation.
    fn count(&mut self, min_elem_size: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len().saturating_sub(self.pos);
        if n.saturating_mul(min_elem_size.max(1)) > remaining {
            return Err(bad("element count exceeds payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> io::Result<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    fn f64s(&mut self) -> io::Result<Vec<f64>> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

// --- enums -----------------------------------------------------------------

fn put_source(out: &mut Vec<u8>, s: PredictionSource) {
    let tag = match s {
        PredictionSource::Cache => 0,
        PredictionSource::Local => 1,
        PredictionSource::Global => 2,
        PredictionSource::Default => 3,
    };
    put_u8(out, tag);
}

fn read_source(cur: &mut Cur<'_>) -> io::Result<PredictionSource> {
    match cur.u8()? {
        0 => Ok(PredictionSource::Cache),
        1 => Ok(PredictionSource::Local),
        2 => Ok(PredictionSource::Global),
        3 => Ok(PredictionSource::Default),
        t => Err(bad(&format!("unknown prediction source tag {t}"))),
    }
}

const QUERY_TYPES: [QueryType; QueryType::COUNT] = [
    QueryType::Select,
    QueryType::Insert,
    QueryType::Update,
    QueryType::Delete,
    QueryType::Other,
];

const S3_FORMATS: [S3Format; S3Format::COUNT] = [
    S3Format::Parquet,
    S3Format::OpenCsv,
    S3Format::Text,
    S3Format::Local,
];

// --- plans -----------------------------------------------------------------

fn put_plan(out: &mut Vec<u8>, plan: &PhysicalPlan) {
    put_u8(out, plan.query_type.index() as u8);
    put_node(out, &plan.root);
}

fn put_node(out: &mut Vec<u8>, node: &PlanNode) {
    put_u8(out, node.op.index() as u8);
    put_f64(out, node.est_cost);
    put_f64(out, node.est_rows);
    put_f64(out, node.width);
    match node.s3_format {
        Some(f) => {
            put_u8(out, 1);
            put_u8(out, f.index() as u8);
        }
        None => put_u8(out, 0),
    }
    put_opt_f64(out, node.table_rows);
    put_u32(out, node.children.len() as u32);
    for child in &node.children {
        put_node(out, child);
    }
}

fn read_plan(cur: &mut Cur<'_>) -> io::Result<PhysicalPlan> {
    let qt = cur.u8()? as usize;
    let query_type = *QUERY_TYPES
        .get(qt)
        .ok_or_else(|| bad("unknown query type index"))?;
    let root = read_node(cur, 0)?;
    Ok(PhysicalPlan { query_type, root })
}

fn read_node(cur: &mut Cur<'_>, depth: usize) -> io::Result<PlanNode> {
    if depth > MAX_PLAN_DEPTH {
        return Err(bad("plan tree exceeds maximum depth"));
    }
    let op_idx = cur.u8()? as usize;
    let op = *OperatorKind::ALL
        .get(op_idx)
        .ok_or_else(|| bad("unknown operator index"))?;
    let est_cost = cur.f64()?;
    let est_rows = cur.f64()?;
    let width = cur.f64()?;
    let s3_format = match cur.u8()? {
        0 => None,
        1 => {
            let idx = cur.u8()? as usize;
            Some(
                *S3_FORMATS
                    .get(idx)
                    .ok_or_else(|| bad("unknown s3 format index"))?,
            )
        }
        _ => return Err(bad("option byte out of range")),
    };
    let table_rows = cur.opt_f64()?;
    // Every child occupies at least its fixed header (op + 3 f64 + 2
    // option bytes + child count), so the count bound holds.
    let n_children = cur.count(31)?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        children.push(read_node(cur, depth + 1)?);
    }
    Ok(PlanNode {
        op,
        est_cost,
        est_rows,
        width,
        s3_format,
        table_rows,
        children,
    })
}

fn put_plans(out: &mut Vec<u8>, plans: &[PhysicalPlan]) {
    put_u32(out, plans.len() as u32);
    for p in plans {
        put_plan(out, p);
    }
}

fn read_plans(cur: &mut Cur<'_>) -> io::Result<Vec<PhysicalPlan>> {
    // A plan is at least a query-type byte plus one node header.
    let n = cur.count(32)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_plan(cur)?);
    }
    Ok(out)
}

// --- requests --------------------------------------------------------------

/// Appends the binary payload of `request` to `out` (no frame header; see
/// [`frame_into`]).
pub fn encode_request(request: &Request, out: &mut Vec<u8>) {
    match request {
        Request::Predict {
            instance,
            plan,
            sys,
        } => {
            put_u8(out, REQ_PREDICT);
            put_u32(out, *instance);
            put_plan(out, plan);
            put_f64s(out, sys);
        }
        Request::PredictBatch {
            instance,
            plans,
            sys,
        } => {
            put_u8(out, REQ_PREDICT_BATCH);
            put_u32(out, *instance);
            put_plans(out, plans);
            put_f64s(out, sys);
        }
        Request::Observe {
            instance,
            plan,
            sys,
            actual_secs,
        } => {
            put_u8(out, REQ_OBSERVE);
            put_u32(out, *instance);
            put_plan(out, plan);
            put_f64s(out, sys);
            put_f64(out, *actual_secs);
        }
        Request::Stats { instance } => {
            put_u8(out, REQ_STATS);
            put_u32(out, *instance);
        }
        Request::Snapshot => put_u8(out, REQ_SNAPSHOT),
        Request::Shutdown => put_u8(out, REQ_SHUTDOWN),
    }
}

/// Decodes one request payload (a whole frame's contents).
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    let mut cur = Cur::new(payload);
    let request = match cur.u8()? {
        REQ_PREDICT => Request::Predict {
            instance: cur.u32()?,
            plan: read_plan(&mut cur)?,
            sys: cur.f64s()?,
        },
        REQ_PREDICT_BATCH => Request::PredictBatch {
            instance: cur.u32()?,
            plans: read_plans(&mut cur)?,
            sys: cur.f64s()?,
        },
        REQ_OBSERVE => Request::Observe {
            instance: cur.u32()?,
            plan: read_plan(&mut cur)?,
            sys: cur.f64s()?,
            actual_secs: cur.f64()?,
        },
        REQ_STATS => Request::Stats {
            instance: cur.u32()?,
        },
        REQ_SNAPSHOT => Request::Snapshot,
        REQ_SHUTDOWN => Request::Shutdown,
        t => return Err(bad(&format!("unknown request tag {t}"))),
    };
    cur.done()?;
    Ok(request)
}

// --- responses -------------------------------------------------------------

fn put_batch_prediction(out: &mut Vec<u8>, p: &BatchPrediction) {
    put_f64(out, p.exec_secs);
    put_opt_f64(out, p.interval_lo);
    put_opt_f64(out, p.interval_hi);
    put_source(out, p.source);
}

fn read_batch_prediction(cur: &mut Cur<'_>) -> io::Result<BatchPrediction> {
    Ok(BatchPrediction {
        exec_secs: cur.f64()?,
        interval_lo: cur.opt_f64()?,
        interval_hi: cur.opt_f64()?,
        source: read_source(cur)?,
    })
}

/// Appends the binary payload of `response` to `out` (no frame header; see
/// [`frame_into`]).
pub fn encode_response(response: &Response, out: &mut Vec<u8>) {
    match response {
        Response::Predicted {
            exec_secs,
            interval_lo,
            interval_hi,
            source,
            latency_us,
        } => {
            put_u8(out, RESP_PREDICTED);
            put_f64(out, *exec_secs);
            put_opt_f64(out, *interval_lo);
            put_opt_f64(out, *interval_hi);
            put_source(out, *source);
            put_u64(out, *latency_us);
        }
        Response::PredictionsBatch {
            predictions,
            latency_us,
        } => {
            put_u8(out, RESP_PREDICTIONS_BATCH);
            put_u32(out, predictions.len() as u32);
            for p in predictions {
                put_batch_prediction(out, p);
            }
            put_u64(out, *latency_us);
        }
        Response::Observed { latency_us } => {
            put_u8(out, RESP_OBSERVED);
            put_u64(out, *latency_us);
        }
        Response::Stats {
            routing,
            observes,
            predict_batches,
            cache_len,
            pool_len,
            local_trained,
            degraded,
            timed_out,
            snapshots_skipped,
            drift_detections,
            forced_retrains,
            checkpoint_failures,
            interval_coverage,
        } => {
            put_u8(out, RESP_STATS);
            put_u64(out, routing.cache);
            put_u64(out, routing.local);
            put_u64(out, routing.global);
            put_u64(out, routing.default);
            put_u64(out, *observes);
            put_u64(out, *predict_batches);
            put_u64(out, *cache_len);
            put_u64(out, *pool_len);
            put_bool(out, *local_trained);
            put_u64(out, degraded.global_failover);
            put_u64(out, degraded.local_failover);
            put_u64(out, degraded.retrains_poisoned);
            put_u64(out, degraded.retrains_slowed);
            put_u64(out, *timed_out);
            put_u64(out, *snapshots_skipped);
            // Appended by the drift/calibration PR; decode-side bounds
            // checks keep short (pre-drift) frames a typed error.
            put_u64(out, *drift_detections);
            put_u64(out, *forced_retrains);
            put_u64(out, *checkpoint_failures);
            put_opt_f64(out, *interval_coverage);
        }
        Response::Snapshotted { instances } => {
            put_u8(out, RESP_SNAPSHOTTED);
            put_u32(out, *instances);
        }
        Response::ShuttingDown => put_u8(out, RESP_SHUTTING_DOWN),
        Response::Overloaded { retry_after_ms } => {
            put_u8(out, RESP_OVERLOADED);
            put_u64(out, *retry_after_ms);
        }
        Response::TimedOut { waited_us } => {
            put_u8(out, RESP_TIMED_OUT);
            put_u64(out, *waited_us);
        }
        Response::Error { message } => {
            put_u8(out, RESP_ERROR);
            put_str(out, message);
        }
    }
}

/// Decodes one response payload (a whole frame's contents).
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let mut cur = Cur::new(payload);
    let response = match cur.u8()? {
        RESP_PREDICTED => Response::Predicted {
            exec_secs: cur.f64()?,
            interval_lo: cur.opt_f64()?,
            interval_hi: cur.opt_f64()?,
            source: read_source(&mut cur)?,
            latency_us: cur.u64()?,
        },
        RESP_PREDICTIONS_BATCH => {
            // Each prediction is at least 8 + 1 + 1 + 1 bytes.
            let n = cur.count(11)?;
            let mut predictions = Vec::with_capacity(n);
            for _ in 0..n {
                predictions.push(read_batch_prediction(&mut cur)?);
            }
            Response::PredictionsBatch {
                predictions,
                latency_us: cur.u64()?,
            }
        }
        RESP_OBSERVED => Response::Observed {
            latency_us: cur.u64()?,
        },
        RESP_STATS => Response::Stats {
            routing: RoutingStats {
                cache: cur.u64()?,
                local: cur.u64()?,
                global: cur.u64()?,
                default: cur.u64()?,
            },
            observes: cur.u64()?,
            predict_batches: cur.u64()?,
            cache_len: cur.u64()?,
            pool_len: cur.u64()?,
            local_trained: cur.bool()?,
            degraded: DegradedStats {
                global_failover: cur.u64()?,
                local_failover: cur.u64()?,
                retrains_poisoned: cur.u64()?,
                retrains_slowed: cur.u64()?,
            },
            timed_out: cur.u64()?,
            snapshots_skipped: cur.u64()?,
            drift_detections: cur.u64()?,
            forced_retrains: cur.u64()?,
            checkpoint_failures: cur.u64()?,
            interval_coverage: cur.opt_f64()?,
        },
        RESP_SNAPSHOTTED => Response::Snapshotted {
            instances: cur.u32()?,
        },
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_OVERLOADED => Response::Overloaded {
            retry_after_ms: cur.u64()?,
        },
        RESP_TIMED_OUT => Response::TimedOut {
            waited_us: cur.u64()?,
        },
        RESP_ERROR => Response::Error {
            message: cur.str()?,
        },
        t => return Err(bad(&format!("unknown response tag {t}"))),
    };
    cur.done()?;
    Ok(response)
}

// --- framing ---------------------------------------------------------------

/// Appends one complete frame (`len | crc32 | payload`) to `out`.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(bad("frame payload exceeds MAX_FRAME_LEN"));
    }
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
    Ok(())
}

/// Result of [`try_unframe`]: either the buffer does not yet hold a whole
/// frame, or one frame's payload plus the bytes to consume.
#[derive(Debug)]
pub enum Unframed<'a> {
    /// Keep reading; no complete frame buffered yet.
    NeedMore,
    /// One validated frame.
    Frame {
        /// Bytes to drain from the front of the buffer (header + payload).
        consumed: usize,
        /// The payload slice (CRC already verified).
        payload: &'a [u8],
    },
}

/// Incremental frame parser for the event loop: inspects the front of a
/// read buffer without consuming it. Errors (oversized length header, CRC
/// mismatch) mean the stream is desynchronised — unlike newline-JSON there
/// is no resync point, so the caller answers an `Error` and closes.
pub fn try_unframe(buf: &[u8]) -> io::Result<Unframed<'_>> {
    let Some(&header) = buf.first_chunk::<8>() else {
        return Ok(Unframed::NeedMore);
    };
    let (len, expect_crc) = parse_frame_header(header)?;
    let total = 8 + len;
    let Some(payload) = buf.get(8..total) else {
        return Ok(Unframed::NeedMore);
    };
    if crc32(payload) != expect_crc {
        return Err(bad("frame checksum mismatch"));
    }
    Ok(Unframed::Frame {
        consumed: total,
        payload,
    })
}

/// Blocking frame reader for the client side: fills `payload` with the next
/// frame's contents. Returns `Ok(false)` on a clean EOF at a frame
/// boundary; EOF mid-frame is `UnexpectedEof`.
pub fn read_frame<R: Read>(input: &mut R, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; 8];
    if !read_full(input, &mut header)? {
        return Ok(false);
    }
    let (len, expect_crc) = parse_frame_header(header)?;
    payload.clear();
    payload.resize(len, 0);
    input.read_exact(payload)?;
    if crc32(payload) != expect_crc {
        return Err(bad("frame checksum mismatch"));
    }
    Ok(true)
}

/// Splits a frame header into the payload length and the payload's
/// expected CRC, refusing a length over [`MAX_FRAME_LEN`] before anything
/// is sized by it.
fn parse_frame_header(header: [u8; 8]) -> io::Result<(usize, u32)> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(bad("frame length header exceeds MAX_FRAME_LEN"));
    }
    Ok((len as usize, u32::from_le_bytes([c0, c1, c2, c3])))
}

/// `read_exact`, except a clean EOF before the first byte is `Ok(false)`
/// rather than an error (so a closed connection at a frame boundary is
/// distinguishable from a torn frame).
fn read_full<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(dst) = buf.get_mut(filled..) else {
            break;
        };
        match input.read(dst) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stage_plan::PlanBuilder;

    fn plan() -> PhysicalPlan {
        PlanBuilder::select()
            .scan("t", S3Format::Parquet, 1e6, 48.0)
            .hash_aggregate(0.02)
            .finish()
    }

    /// One value of every [`Request`] variant, each chosen by its
    /// predecessor through an exhaustive `match` with no `_` arm: a new
    /// verb does not compile until it is listed here, and then the tests
    /// below hold both codecs and README's verb table to it.
    fn every_request() -> Vec<Request> {
        let mut all = vec![Request::Snapshot];
        while let Some(last) = all.last() {
            let next = match last {
                Request::Snapshot => Request::Shutdown,
                Request::Shutdown => Request::Stats { instance: 9 },
                Request::Stats { .. } => Request::Predict {
                    instance: 3,
                    plan: plan(),
                    sys: vec![1.0, -0.0, f64::MAX],
                },
                Request::Predict { .. } => Request::PredictBatch {
                    instance: 1,
                    plans: vec![plan(), plan()],
                    sys: vec![0.5],
                },
                Request::PredictBatch { .. } => Request::Observe {
                    instance: 0,
                    plan: plan(),
                    sys: vec![],
                    actual_secs: 4.25,
                },
                Request::Observe { .. } => break,
            };
            all.push(next);
        }
        all
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Predicted {
                exec_secs: 2.5,
                interval_lo: Some(1.0),
                interval_hi: None,
                source: PredictionSource::Local,
                latency_us: 120,
            },
            Response::PredictionsBatch {
                predictions: vec![BatchPrediction {
                    exec_secs: 0.25,
                    interval_lo: None,
                    interval_hi: Some(9.0),
                    source: PredictionSource::Cache,
                }],
                latency_us: 11,
            },
            Response::Observed { latency_us: 40 },
            Response::Stats {
                routing: RoutingStats {
                    cache: 3,
                    local: 2,
                    global: 0,
                    default: 1,
                },
                observes: 6,
                predict_batches: 2,
                cache_len: 4,
                pool_len: 5,
                local_trained: true,
                degraded: DegradedStats {
                    global_failover: 1,
                    local_failover: 2,
                    retrains_poisoned: 0,
                    retrains_slowed: 1,
                },
                timed_out: 3,
                snapshots_skipped: 9,
                drift_detections: 2,
                forced_retrains: 1,
                checkpoint_failures: 4,
                interval_coverage: Some(0.875),
            },
            Response::Snapshotted { instances: 2 },
            Response::ShuttingDown,
            Response::Overloaded { retry_after_ms: 5 },
            Response::TimedOut { waited_us: 250_000 },
            Response::Error {
                message: "unknown instance 9 — try 0..2 §".into(),
            },
        ]
    }

    /// Every verb survives both codecs bit for bit (the binary encoding
    /// writes floats as `to_bits`, so equal payloads are equal values) and
    /// is named in README's verb table.
    #[test]
    fn every_request_round_trips_both_codecs_and_is_documented() {
        let readme = include_str!("../../../README.md");
        for r in every_request() {
            let mut payload = Vec::new();
            encode_request(&r, &mut payload);
            let json = serde_json::to_string(&r).unwrap();
            for back in [
                decode_request(&payload).unwrap(),
                serde_json::from_str(&json).unwrap(),
            ] {
                let mut again = Vec::new();
                encode_request(&back, &mut again);
                assert_eq!(payload, again, "round trip must be bit-exact: {r:?}");
            }
            let verb = json.trim_start_matches(['{', '"']).split('"').next();
            let row = verb.map(|v| format!("| `{v}` |"));
            assert!(
                row.is_some_and(|row| readme.contains(&row)),
                "README's verb table must name {verb:?}"
            );
        }
    }

    #[test]
    fn every_response_round_trips() {
        for r in responses() {
            let mut payload = Vec::new();
            encode_response(&r, &mut payload);
            let back = decode_response(&payload).unwrap();
            let mut again = Vec::new();
            encode_response(&back, &mut again);
            assert_eq!(payload, again, "re-encode must be byte-identical: {r:?}");
        }
    }

    #[test]
    fn nan_and_negative_zero_survive_bit_exactly() {
        let r = Request::Observe {
            instance: 0,
            plan: plan(),
            sys: vec![f64::NAN, -0.0],
            actual_secs: f64::from_bits(0x7FF8_0000_0000_1234),
        };
        let mut payload = Vec::new();
        encode_request(&r, &mut payload);
        let Request::Observe {
            sys, actual_secs, ..
        } = decode_request(&payload).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(actual_secs.to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(sys.first().map(|x| x.to_bits()), Some(f64::NAN.to_bits()));
        assert_eq!(sys.get(1).map(|x| x.to_bits()), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn frames_round_trip_and_detect_damage() {
        let mut payload = Vec::new();
        encode_request(&Request::Stats { instance: 7 }, &mut payload);
        let mut framed = Vec::new();
        frame_into(&mut framed, &payload).unwrap();

        // Whole frame parses.
        let Unframed::Frame {
            consumed,
            payload: got,
        } = try_unframe(&framed).unwrap()
        else {
            panic!("expected a frame");
        };
        assert_eq!(consumed, framed.len());
        assert_eq!(got, payload.as_slice());

        // Every strict prefix is NeedMore — a torn frame never half-parses.
        for cut in 0..framed.len() {
            assert!(matches!(
                try_unframe(&framed[..cut]).unwrap(),
                Unframed::NeedMore
            ));
        }

        // A flipped payload bit is a checksum error.
        let mut corrupt = framed.clone();
        if let Some(b) = corrupt.last_mut() {
            *b ^= 0x01;
        }
        assert!(try_unframe(&corrupt).is_err());

        // An oversized length header is refused before any allocation.
        let mut huge = vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        huge.extend_from_slice(&payload);
        assert!(try_unframe(&huge).is_err());

        // Blocking reader agrees with the incremental parser.
        let mut cursor = io::Cursor::new(framed);
        let mut out = Vec::new();
        assert!(read_frame(&mut cursor, &mut out).unwrap());
        assert_eq!(out, payload);
        assert!(!read_frame(&mut cursor, &mut out).unwrap(), "clean EOF");
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof() {
        let mut payload = Vec::new();
        encode_request(&Request::Snapshot, &mut payload);
        let mut framed = Vec::new();
        frame_into(&mut framed, &payload).unwrap();
        framed.truncate(framed.len() - 1);
        let mut cursor = io::Cursor::new(framed);
        let mut out = Vec::new();
        let err = read_frame(&mut cursor, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn deep_plan_is_refused_not_a_stack_overflow() {
        // Hand-build a payload claiming a plan nested past MAX_PLAN_DEPTH.
        let mut payload = vec![REQ_PREDICT];
        put_u32(&mut payload, 0); // instance
        put_u8(&mut payload, 0); // query type
        for _ in 0..(MAX_PLAN_DEPTH + 8) {
            put_u8(&mut payload, 0); // op
            put_f64(&mut payload, 1.0);
            put_f64(&mut payload, 1.0);
            put_f64(&mut payload, 1.0);
            put_u8(&mut payload, 0); // no s3_format
            put_u8(&mut payload, 0); // no table_rows
            put_u32(&mut payload, 1); // one child, ad infinitum
        }
        let err = decode_request(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// The deepest plan the binary decoder admits (root at depth 0, a leaf
    /// at [`MAX_PLAN_DEPTH`]) also parses from JSON inside every verb that
    /// carries plans, within `serde_json::MAX_NESTING`, on a thread with
    /// the default 2 MiB stack like the serve loops'.
    #[test]
    fn the_deepest_binary_plan_parses_as_json() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut deepest = plan();
                deepest.root = PlanNode::leaf(OperatorKind::ALL[0], 1.0, 1.0, 1.0);
                for _ in 0..MAX_PLAN_DEPTH {
                    deepest.root =
                        PlanNode::internal(OperatorKind::ALL[0], 1.0, 1.0, 1.0, vec![deepest.root]);
                }
                let sys = vec![1.0, 0.5];
                for request in [
                    Request::Predict {
                        instance: 0,
                        plan: deepest.clone(),
                        sys: sys.clone(),
                    },
                    Request::PredictBatch {
                        instance: 0,
                        plans: vec![deepest.clone()],
                        sys: sys.clone(),
                    },
                    Request::Observe {
                        instance: 0,
                        plan: deepest.clone(),
                        sys: sys.clone(),
                        actual_secs: 1.0,
                    },
                ] {
                    let (mut payload, mut again) = (Vec::new(), Vec::new());
                    encode_request(&request, &mut payload);
                    encode_request(&decode_request(&payload).unwrap(), &mut again);
                    assert_eq!(again, payload);
                    let json = serde_json::to_string(&request).unwrap();
                    let parsed: Request = serde_json::from_str(&json).unwrap();
                    assert_eq!(serde_json::to_string(&parsed).unwrap(), json);
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn garbage_payloads_error_not_panic() {
        for payload in [
            &b""[..],
            &[99u8][..],
            &[REQ_PREDICT][..],
            &[REQ_STATS, 1][..],
            &[REQ_SNAPSHOT, 0][..], // trailing byte
        ] {
            assert!(decode_request(payload).is_err(), "payload {payload:?}");
        }
        assert!(decode_response(&[77u8]).is_err());
        // A corrupt element count must not drive a giant allocation.
        let mut payload = vec![REQ_PREDICT_BATCH];
        put_u32(&mut payload, 0);
        put_u32(&mut payload, u32::MAX); // plans "count"
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn handshake_first_byte_cannot_begin_json() {
        // JSON requests start with '{' (struct variants) or '"' (unit
        // variants); the magic byte must collide with neither.
        assert_ne!(HANDSHAKE[0], b'{');
        assert_ne!(HANDSHAKE[0], b'"');
        assert!(!HANDSHAKE[0].is_ascii());
    }
}
