//! # logit-telemetry
//!
//! Lock-light observability for the logit-dynamics workspace: a
//! [`MetricsRegistry`] of named instruments — monotonic [`Counter`]s,
//! [`Gauge`]s and fixed-bucket log-scale [`Histogram`]s with
//! p50/p95/p99 snapshots — plus an RAII span timer
//! ([`Histogram::span`] / [`span`]) that feeds a histogram on drop.
//! The hot path is atomics only: the registry's lock is taken at
//! instrument *registration* (once per name per process), never while
//! recording.
//!
//! ## Two gates, both default-off
//!
//! * **Compile time** — without the `telemetry` cargo feature every type
//!   in this crate is a zero-sized struct and every method an empty
//!   `#[inline]` body: no allocation, no atomics, no branches. The
//!   engines instrument themselves unconditionally and rely on this
//!   crate to vanish, so the bit-identity and idle-tax invariants of the
//!   default build are untouched by construction (pinned by the
//!   size-of/`#[cfg]` tests here and the telemetry-off guard in
//!   `logit-core`).
//! * **Run time** — with the feature compiled in, recording is gated by
//!   `LOGIT_TELEMETRY` (`1`/`true`/`yes`/`on`, read once per process);
//!   [`enable`] forces it on programmatically (harnesses, benches). A
//!   set-but-unparseable value warns once on stderr through the same
//!   [`warn_invalid_env`] path the `LOGIT_*` runtime knobs use, and
//!   falls back to disabled.
//!
//! ## Naming scheme
//!
//! Instrument names are dot-separated `layer.metric[_unit]` paths
//! (`runtime.dispatch_ns`, `server.job_exec_ns`); one `{key="value"}`
//! label picks an instance out of a family (`runtime.chunks_stolen{worker="3"}`).
//! [`MetricsRegistry::render`] emits the Prometheus text exposition
//! format (dots become underscores; histograms render cumulative
//! `_bucket{le="..."}` lines plus `_sum`/`_count` and `_p50`/`_p95`/`_p99`
//! gauges), and [`parse_prometheus`] reads that text back into a map —
//! the round-trip the `logit-serve` STATS frame and its self-test
//! assertions are built on.

mod snapshot;
mod text;

pub use snapshot::{bucket_bound, HistogramSnapshot, BUCKET_CELLS};
pub use text::parse_prometheus;

#[cfg(feature = "telemetry")]
mod metrics;
#[cfg(feature = "telemetry")]
pub use metrics::{
    enable, enabled, global, span, Counter, Gauge, Histogram, MetricsRegistry, Span,
};

#[cfg(not(feature = "telemetry"))]
mod noop;
#[cfg(not(feature = "telemetry"))]
pub use noop::{enable, enabled, global, span, Counter, Gauge, Histogram, MetricsRegistry, Span};

/// Records that a warning for `var` has been emitted; returns `true` the
/// first time a given variable name is seen in this process. Split from
/// [`warn_invalid_env`] so the once-per-variable bookkeeping is testable
/// without capturing stderr. This is the workspace-wide dedup set:
/// `logit-core`'s runtime knobs and this crate's `LOGIT_TELEMETRY` read
/// all warn through it, so a variable warns once per process no matter
/// which layer reads it first (or how often it is re-read).
pub fn first_warning(var: &str) -> bool {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("warning set poisoned")
        .insert(var.to_string())
}

/// Emits a one-time stderr warning that the environment variable `var`
/// carried the unparseable `value` and the built-in default is used
/// instead. A bad value never aborts a run — but a typo like
/// `LOGIT_TELEMETRY=o n` is no longer indistinguishable from the
/// variable being unset.
pub fn warn_invalid_env(var: &str, value: &str) {
    if first_warning(var) {
        eprintln!("warning: ignoring unparseable {var}={value:?}; using the built-in default");
    }
}

/// Parses a `LOGIT_TELEMETRY` value: the same truthy/falsy tokens the
/// runtime's boolean knobs accept. `None` means unparseable (warn and
/// treat as unset).
pub fn parse_enabled(value: &str) -> Option<bool> {
    match value {
        "1" | "true" | "TRUE" | "yes" | "on" => Some(true),
        "0" | "false" | "FALSE" | "no" | "off" | "" => Some(false),
        _ => None,
    }
}

/// Reads the `LOGIT_TELEMETRY` switch from an injectable variable source,
/// reporting a set-but-unparseable value through `warn` (no
/// once-per-process dedup at this layer — that lives in the real stderr
/// sink, [`warn_invalid_env`]). Unset and unparseable both mean
/// disabled: telemetry is strictly opt-in.
pub fn read_enabled_with(
    lookup: impl Fn(&str) -> Option<String>,
    mut warn: impl FnMut(&str, &str),
) -> bool {
    match lookup("LOGIT_TELEMETRY") {
        None => false,
        Some(value) => match parse_enabled(value.trim()) {
            Some(on) => on,
            None => {
                warn("LOGIT_TELEMETRY", &value);
                false
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_env_parses_the_boolean_tokens() {
        for on in ["1", "true", "yes", "on"] {
            assert_eq!(parse_enabled(on), Some(true), "{on} must enable");
        }
        for off in ["0", "false", "no", "off", ""] {
            assert_eq!(parse_enabled(off), Some(false), "{off:?} must disable");
        }
        assert_eq!(parse_enabled("maybe"), None);
    }

    #[test]
    fn unset_and_garbage_telemetry_env_both_disable() {
        let mut warned: Vec<(String, String)> = Vec::new();
        assert!(!read_enabled_with(
            |_| None,
            |v, x| warned.push((v.into(), x.into()))
        ));
        assert!(warned.is_empty(), "unset must not warn");

        assert!(read_enabled_with(
            |k| (k == "LOGIT_TELEMETRY").then(|| " 1 ".to_string()),
            |v, x| warned.push((v.into(), x.into())),
        ));
        assert!(warned.is_empty(), "parseable must not warn");

        assert!(!read_enabled_with(
            |k| (k == "LOGIT_TELEMETRY").then(|| "o n".to_string()),
            |v, x| warned.push((v.into(), x.into())),
        ));
        assert_eq!(
            warned,
            vec![("LOGIT_TELEMETRY".to_string(), "o n".to_string())],
            "a set-but-unparseable value warns, naming variable and value"
        );
    }

    #[test]
    fn repeated_invalid_reads_warn_once_per_variable() {
        // The parse layer reports every rejection (no dedup there)...
        let mut raw = 0usize;
        for _ in 0..3 {
            read_enabled_with(
                |k| (k == "LOGIT_TELEMETRY").then(|| "garbage".to_string()),
                |_, _| raw += 1,
            );
        }
        assert_eq!(raw, 3, "the injectable sink sees every invalid read");
        // ...and the process-global stderr sink dedups per variable, so
        // re-reading an invalid LOGIT_TELEMETRY forever emits one line.
        assert!(first_warning("LOGIT_TELEMETRY_DEDUP_PIN"));
        assert!(
            !first_warning("LOGIT_TELEMETRY_DEDUP_PIN"),
            "a second warning for the same variable must be suppressed"
        );
        assert!(first_warning("LOGIT_TELEMETRY_DEDUP_PIN_TWO"));
    }

    #[cfg(not(feature = "telemetry"))]
    mod noop_guarantees {
        use super::super::*;

        #[test]
        fn every_instrument_is_a_zero_sized_noop() {
            // The compile-time pin of the "telemetry off is genuinely
            // free" contract: handles occupy no memory, so instrumented
            // structs (FarmSender, caches) pay nothing.
            assert_eq!(std::mem::size_of::<Counter>(), 0);
            assert_eq!(std::mem::size_of::<Gauge>(), 0);
            assert_eq!(std::mem::size_of::<Histogram>(), 0);
            assert_eq!(std::mem::size_of::<Span>(), 0);
            assert_eq!(std::mem::size_of::<MetricsRegistry>(), 0);
        }

        #[test]
        fn the_noop_registry_never_registers_anything() {
            assert!(!enabled(), "feature-off builds can never enable");
            assert!(!enable(), "enable() must refuse without the feature");
            let registry = global();
            let counter = registry.counter("noop.counter");
            counter.inc();
            counter.add(7);
            let gauge = registry.gauge_labelled("noop.gauge", ("k", "v"));
            gauge.set(3.5);
            gauge.add(-1.0);
            let histogram = registry.histogram("noop.histogram");
            histogram.record(123.0);
            {
                let _span = histogram.span();
            }
            {
                let _span = span("noop.span_ns");
            }
            assert_eq!(counter.value(), 0);
            assert_eq!(gauge.value(), 0.0);
            assert_eq!(histogram.snapshot().count, 0);
            assert_eq!(registry.instrument_count(), 0, "nothing may allocate");
            assert!(
                registry.render().contains("telemetry disabled"),
                "the disabled snapshot names its state"
            );
            assert!(parse_prometheus(&registry.render())
                .expect("disabled snapshot still parses")
                .is_empty());
        }
    }
}
