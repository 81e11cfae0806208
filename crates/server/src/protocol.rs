//! The length-prefixed wire protocol and the bit-exact series encoding.
//!
//! Every message on a connection is one *frame*: a `u32` big-endian length
//! (kind byte plus payload), one kind byte, then a UTF-8 payload. The
//! client speaks [`SUBMIT`] and [`CANCEL`]; the server answers with
//! [`ACCEPTED`] or [`REJECTED`], streams zero or more [`SERIES`] frames,
//! and terminates the stream with exactly one of [`FINAL`]+[`DONE`],
//! [`CANCELLED`], or [`ERROR`].
//!
//! All floating-point values cross the wire as the 16-hex-digit IEEE-754
//! bit pattern ([`encode_f64`]), never as decimal text — the service's
//! reproducibility contract is *bit*-identity with an offline
//! [`Simulator`](logit_core::Simulator) run, so the encoding must be a
//! bijection on `f64`.

use std::io::{self, Read, Write};

/// Client → server: the payload is a job description (`key=value` lines).
pub const SUBMIT: u8 = b'S';
/// Client → server: cancel the in-flight job on this connection.
pub const CANCEL: u8 = b'C';
/// Server → client: job admitted; payload carries id, the artifact-cache
/// key (the topology's hash) and artifact-cache provenance.
pub const ACCEPTED: u8 = b'A';
/// Server → client: job rejected at admission; payload is
/// `<code>: <message>` from a typed [`AdmissionError`](crate::AdmissionError).
pub const REJECTED: u8 = b'R';
/// Server → client: one recorded time step of the observable series.
pub const SERIES: u8 = b'V';
/// Server → client: per-replica observable values at the final step.
pub const FINAL: u8 = b'F';
/// Server → client: the series is complete.
pub const DONE: u8 = b'D';
/// Server → client: the job was cancelled; the stream ends cleanly here.
pub const CANCELLED: u8 = b'X';
/// Server → client: the job died inside the executor backstop.
pub const ERROR: u8 = b'!';
/// Bidirectional: as a client's *first* frame, requests a live metrics
/// snapshot instead of submitting a job; the server answers with one
/// STATS frame whose payload is the Prometheus-text snapshot
/// ([`render_stats`](crate::stats::render_stats)) and closes.
pub const STATS: u8 = b'T';

/// Upper bound on a frame body (kind + payload); a peer announcing more is
/// a protocol violation, not an allocation request.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &str) -> io::Result<()> {
    let body_len = 1 + payload.len();
    assert!(body_len <= MAX_FRAME_LEN, "frame payload too large to send");
    w.write_all(&(body_len as u32).to_be_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary;
/// any other malformation (truncated frame, oversized length, non-UTF-8
/// payload) is an `io::Error`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, String)>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let body_len = u32::from_be_bytes(len_buf) as usize;
    if body_len == 0 || body_len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {body_len} outside 1..={MAX_FRAME_LEN}"),
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    let kind = body[0];
    let payload = String::from_utf8(body.split_off(1))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))?;
    Ok(Some((kind, payload)))
}

/// `f64` → 16 hex digits of its IEEE-754 bit pattern (a bijection, unlike
/// any decimal formatting).
pub fn encode_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`encode_f64`].
pub fn decode_f64(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("expected 16 hex digits, got `{s}`"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("expected 16 hex digits, got `{s}`"))
}

/// One recorded time step of a streamed observable series: the across-
/// replica statistics the engines accumulate.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Recorded time (engine ticks).
    pub t: u64,
    /// Observations folded into the statistics.
    pub count: u64,
    /// Across-replica mean.
    pub mean: f64,
    /// Across-replica sample variance.
    pub variance: f64,
    /// Across-replica minimum.
    pub min: f64,
    /// Across-replica maximum.
    pub max: f64,
}

impl SeriesPoint {
    /// Encodes the point as one [`SERIES`] frame payload.
    pub fn encode(&self) -> String {
        format!(
            "t={} count={} mean={} var={} min={} max={}",
            self.t,
            self.count,
            encode_f64(self.mean),
            encode_f64(self.variance),
            encode_f64(self.min),
            encode_f64(self.max),
        )
    }

    /// Parses a [`SERIES`] frame payload.
    pub fn decode(payload: &str) -> Result<SeriesPoint, String> {
        let mut t = None;
        let mut count = None;
        let mut mean = None;
        let mut variance = None;
        let mut min = None;
        let mut max = None;
        for token in payload.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("series token `{token}` is not key=value"))?;
            match key {
                "t" => t = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
                "count" => count = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
                "mean" => mean = Some(decode_f64(value)?),
                "var" => variance = Some(decode_f64(value)?),
                "min" => min = Some(decode_f64(value)?),
                "max" => max = Some(decode_f64(value)?),
                other => return Err(format!("unknown series key `{other}`")),
            }
        }
        Ok(SeriesPoint {
            t: t.ok_or("series frame lacks t")?,
            count: count.ok_or("series frame lacks count")?,
            mean: mean.ok_or("series frame lacks mean")?,
            variance: variance.ok_or("series frame lacks var")?,
            min: min.ok_or("series frame lacks min")?,
            max: max.ok_or("series frame lacks max")?,
        })
    }
}

/// A complete streamed series: what a client reassembles from the
/// [`SERIES`]/[`FINAL`] frames, and what [`run_direct`](crate::run_direct)
/// produces offline. Equality of the two — `PartialEq` compares every `f64`
/// through its bit pattern via the encoded frames — is the service's
/// reproducibility gate.
#[derive(Debug, Clone)]
pub struct StreamedResult {
    /// Observable name.
    pub name: String,
    /// One point per recorded time.
    pub points: Vec<SeriesPoint>,
    /// Observable value of every replica (or tempering ensemble) at the
    /// final recorded time.
    pub finals: Vec<f64>,
}

impl StreamedResult {
    /// Encodes the [`FINAL`] frame payload: the observable name, then the
    /// per-replica finals as hex bit patterns.
    pub fn encode_final(&self) -> String {
        let mut payload = format!("name={}", self.name);
        for v in &self.finals {
            payload.push(' ');
            payload.push_str(&encode_f64(*v));
        }
        payload
    }

    /// Parses a [`FINAL`] frame payload produced by [`encode_final`](Self::encode_final).
    pub fn decode_final(payload: &str) -> Result<(String, Vec<f64>), String> {
        let mut tokens = payload.split_whitespace();
        let name = tokens
            .next()
            .and_then(|t| t.strip_prefix("name="))
            .ok_or("final frame lacks name=")?
            .to_string();
        let finals = tokens.map(decode_f64).collect::<Result<Vec<_>, _>>()?;
        Ok((name, finals))
    }

    /// The full wire rendering of the series (every frame payload, in
    /// order). Two results are bit-identical iff these strings are equal;
    /// this is the string the bench gate and the tests compare.
    pub fn wire_text(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&p.encode());
            out.push('\n');
        }
        out.push_str(&self.encode_final());
        out.push('\n');
        out
    }
}

impl PartialEq for StreamedResult {
    fn eq(&self, other: &Self) -> bool {
        self.wire_text() == other.wire_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_hex_is_a_bijection_on_awkward_values() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            6.02214076e23,
        ] {
            let decoded = decode_f64(&encode_f64(v)).unwrap();
            assert_eq!(decoded.to_bits(), v.to_bits());
        }
        let nan = decode_f64(&encode_f64(f64::NAN)).unwrap();
        assert_eq!(nan.to_bits(), f64::NAN.to_bits());
        assert!(decode_f64("xyz").is_err());
        assert!(decode_f64("00000000000000000").is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_malformation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, SUBMIT, "game=ising\nn=4").unwrap();
        write_frame(&mut buf, DONE, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((SUBMIT, "game=ising\nn=4".to_string()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((DONE, String::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // A zero-length frame and an oversized announcement are both
        // protocol violations, not allocations.
        let mut zero = &[0u8, 0, 0, 0][..];
        assert!(read_frame(&mut zero).is_err());
        let mut huge = &[0xffu8, 0xff, 0xff, 0xff][..];
        assert!(read_frame(&mut huge).is_err());
        // Truncated body.
        let mut cut = &[0u8, 0, 0, 5, b'V'][..];
        assert!(read_frame(&mut cut).is_err());
    }

    #[test]
    fn series_points_and_finals_round_trip() {
        let p = SeriesPoint {
            t: 12,
            count: 32,
            mean: 0.1 + 0.2, // deliberately not exactly 0.3
            variance: 1e-17,
            min: -0.0,
            max: f64::MAX,
        };
        let decoded = SeriesPoint::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
        assert!(SeriesPoint::decode("t=1 count=2").is_err());

        let r = StreamedResult {
            name: "fraction_1".into(),
            points: vec![p],
            finals: vec![0.5, 0.25, 1.0 / 3.0],
        };
        let (name, finals) = StreamedResult::decode_final(&r.encode_final()).unwrap();
        assert_eq!(name, "fraction_1");
        assert_eq!(finals.len(), 3);
        assert_eq!(finals[2].to_bits(), (1.0f64 / 3.0).to_bits());
    }
}
