//! Summary statistics, the host record and the JSON lines the benchmark
//! prints.

use std::fmt::Write as _;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A minimal JSON value: enough for the records this benchmark prints.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String) {
        match self {
            // Full precision: Rust prints the shortest string that reads
            // back as the same f64. Non-finite values have no JSON form.
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => write!(out, "{v}").expect("write to String"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(key.clone()).write(out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// CPUs this process may run on (what `nproc` prints), from the
/// `Cpus_allowed_list` of `/proc/self/status`.
fn nproc() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut count = 0;
    for range in list.trim().split(',') {
        count += match range.split_once('-') {
            Some((a, b)) => b.parse::<u64>().ok()? - a.parse::<u64>().ok()? + 1,
            None => 1,
        };
    }
    Some(count)
}

/// Bytes of the level-`level` data or unified cache of CPU 0, from sysfs.
pub fn cache_bytes(level: u32) -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    for entry in dir.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(l), Some(kind), Some(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if l.trim() == level.to_string() && kind.trim() != "Instruction" {
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('K') {
                Some(d) => (d, 1024),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1024 * 1024),
                    None => (size, 1),
                },
            };
            return digits.parse::<u64>().ok().map(|v| v * scale);
        }
    }
    None
}

fn opt(v: Option<u64>) -> Json {
    v.map_or(Json::Str("unknown".into()), Json::Int)
}

/// The host this result was measured on.
pub fn host_record(source: &str) -> Json {
    let mut logit_vars: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("LOGIT_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    logit_vars.sort_by(|a, b| a.0.cmp(&b.0));
    Json::obj([
        ("nproc", opt(nproc())),
        (
            "available_parallelism",
            opt(std::thread::available_parallelism()
                .ok()
                .map(|n| n.get() as u64)),
        ),
        ("logit_env", Json::Obj(logit_vars)),
        ("l2_bytes_per_core", opt(cache_bytes(2))),
        ("l3_bytes", opt(cache_bytes(3))),
        ("source", Json::str(source)),
    ])
}
