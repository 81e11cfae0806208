//! The benchmark's own protocol client, built on the public
//! `protocol::{write_frame, read_frame}`: unlike `submit_job` it records
//! the time to the first SERIES frame as well as to the terminal frame, and
//! classifies how the stream ended.

use logit_server::protocol::{
    read_frame, write_frame, ACCEPTED, CANCELLED, DONE, ERROR, FINAL, REJECTED, SERIES, SUBMIT,
};
use logit_server::{SeriesPoint, StreamedResult};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// How one job ended, as its caller saw it. Anything but `Done` counts as
/// a failed job.
#[derive(Debug)]
pub enum Outcome {
    Done(StreamedResult),
    Failed(String),
}

/// One submitted job: submit → first SERIES frame and submit → terminal
/// frame, in seconds.
pub struct Submission {
    pub outcome: Outcome,
    pub latency_s: f64,
    pub first_series_s: Option<f64>,
}

/// Submits `text` on a fresh connection and blocks until its terminal
/// frame (the protocol carries one job per connection).
pub fn submit(addr: SocketAddr, text: &str) -> Submission {
    let started = Instant::now();
    let mut first_series_s = None;
    let outcome = stream(addr, text, started, &mut first_series_s)
        .unwrap_or_else(|e| Outcome::Failed(format!("i/o error: {e}")));
    Submission {
        outcome,
        latency_s: started.elapsed().as_secs_f64(),
        first_series_s,
    }
}

fn stream(
    addr: SocketAddr,
    text: &str,
    started: Instant,
    first_series_s: &mut Option<f64>,
) -> std::io::Result<Outcome> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    write_frame(&mut conn, SUBMIT, text)?;
    let mut points = Vec::new();
    let mut finals = None;
    loop {
        let Some((kind, payload)) = read_frame(&mut conn)? else {
            return Ok(Outcome::Failed(
                "stream ended without a terminal frame".into(),
            ));
        };
        match kind {
            ACCEPTED => {}
            SERIES => {
                first_series_s.get_or_insert_with(|| started.elapsed().as_secs_f64());
                match SeriesPoint::decode(&payload) {
                    Ok(point) => points.push(point),
                    Err(e) => return Ok(Outcome::Failed(format!("bad SERIES frame: {e}"))),
                }
            }
            FINAL => match StreamedResult::decode_final(&payload) {
                Ok(decoded) => finals = Some(decoded),
                Err(e) => return Ok(Outcome::Failed(format!("bad FINAL frame: {e}"))),
            },
            DONE => {
                return Ok(match finals {
                    Some((name, finals)) => Outcome::Done(StreamedResult {
                        name,
                        points,
                        finals,
                    }),
                    None => Outcome::Failed("DONE without FINAL".into()),
                })
            }
            REJECTED => return Ok(Outcome::Failed(format!("REJECTED {payload}"))),
            CANCELLED => return Ok(Outcome::Failed("CANCELLED".into())),
            ERROR => return Ok(Outcome::Failed(format!("ERROR {payload}"))),
            other => {
                return Ok(Outcome::Failed(format!(
                    "unexpected frame kind {other:#04x}"
                )))
            }
        }
    }
}
