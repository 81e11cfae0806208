//! Persistent parallel runtime: a worker pool spawned once and reused for
//! every tick, plus the configuration knobs shared by all parallel paths.
//!
//! This is the workspace's one parallel runtime, in the skeleton-library
//! shape (spawn once, wait between dispatches, drive per-tick work through
//! a claim counter and a completion barrier). Colour-class sweeps
//! ([`DynamicsEngine::step_coloured_pooled_bytes`](crate::DynamicsEngine::step_coloured_pooled_bytes)),
//! the farmed runner's segments
//! ([`Simulator::run_profiles_pipelined`](crate::Simulator::run_profiles_pipelined)),
//! tempered runs ([`Simulator::run_tempered`](crate::Simulator::run_tempered)),
//! the replica ensembles ([`Simulator::run`](crate::Simulator::run),
//! [`Simulator::run_profiles`](crate::Simulator::run_profiles), the
//! observables ensemble), the exact β-sweeps and the annealing minimisers
//! all dispatch through it, so [`RuntimeConfig`] (and `LOGIT_WORKERS`)
//! governs every one of them:
//!
//! * [`RuntimeConfig`] — the single notion of "how many threads" (worker
//!   count, narrow-class threshold, cache-block size), threaded through
//!   [`Simulator`](crate::Simulator) and overridable from the environment
//!   for benches (`LOGIT_WORKERS`, `LOGIT_MIN_CLASS_SIZE`,
//!   `LOGIT_BLOCK_PLAYERS`).
//! * [`WorkerPool`] — the persistent pool itself: chunked work
//!   distribution ([`WorkerPool::run`], [`WorkerPool::for_each_chunk`]) on
//!   the caller plus the pool's workers, per-dispatch barrier
//!   synchronisation, and first-panic propagation. Idle workers yield the CPU between polls
//!   for a bounded budget, then park on a condvar until the next dispatch.
//!
//! Work distribution is a shared atomic claim counter, so chunk→worker
//! assignment is dynamic (idle workers steal whatever chunk is next); the
//! counter-derived per-player draw scheme makes the *results*
//! worker-count-independent and bit-identical to the sequential class
//! sweep regardless of which worker executes which chunk.

mod pool;

pub use pool::WorkerPool;

/// Records that a warning for `var` has been emitted; returns `true` the
/// first time a given variable name is seen in this process. Delegates to
/// the workspace-wide dedup set in `logit-telemetry`, so the runtime's
/// `LOGIT_*` knobs and the telemetry layer's `LOGIT_TELEMETRY` read share
/// one once-per-variable ledger no matter which crate reads first.
#[cfg(test)]
fn first_warning(var: &str) -> bool {
    logit_telemetry::first_warning(var)
}

/// Emits a one-time stderr warning that the environment variable `var`
/// carried the unparseable `value` and the built-in default is used
/// instead. The fallback behaviour is unchanged from the silent era — a
/// bad value never aborts a run — but a typo like `LOGIT_WORKERS=for`
/// is no longer indistinguishable from the variable being unset.
fn warn_invalid_env(var: &str, value: &str) {
    logit_telemetry::warn_invalid_env(var, value);
}

/// The one shared notion of "how parallel": worker count, the
/// narrow-class amortisation guard and the cache-block size, read by every
/// parallel path in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Total stepping threads (including the calling thread for coloured
    /// sweeps and replica fan-outs; pool participants for farm shapes).
    /// `0` means "one per available core".
    pub workers: usize,
    /// Colour classes (or chunked work sets) smaller than this run inline
    /// on the calling thread: below the threshold, dispatch overhead beats
    /// any parallel win.
    pub min_class_size: usize,
    /// Cache-block size of the coloured sweeps, in players per chunk: a
    /// colour class is cut into blocks of at most this many players, so
    /// each block's working set (staged strategies + the bandwidth-wide
    /// profile window it reads after relabelling) stays L2-resident while
    /// the pool's claim counter load-balances the blocks dynamically.
    /// `0` disables blocking (one chunk per worker, the pre-locality
    /// behaviour). The default suits a 1–2 MiB L2.
    pub block_players: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 0,
            min_class_size: 256,
            block_players: 32_768,
        }
    }
}

impl RuntimeConfig {
    /// Reads the config from the environment, falling back to defaults for
    /// unset or unparseable variables: `LOGIT_WORKERS` (integer, 0 = auto),
    /// `LOGIT_MIN_CLASS_SIZE` (integer), `LOGIT_BLOCK_PLAYERS` (integer,
    /// 0 = no cache blocking).
    pub fn from_env() -> Self {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// [`from_env`](Self::from_env) with an injectable variable source, so
    /// parsing is testable without mutating process-global state. A set but
    /// unparseable variable falls back to the default *and* emits a
    /// one-time stderr warning naming the variable and the rejected value
    /// (see [`from_lookup_with`](Self::from_lookup_with) for the injectable
    /// warning sink the tests use).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        Self::from_lookup_with(lookup, warn_invalid_env)
    }

    /// [`from_lookup`](Self::from_lookup) with an injectable warning sink:
    /// `warn(var, value)` is called for every set-but-unparseable variable
    /// (no once-per-process dedup at this layer — that lives in the real
    /// stderr sink), and the default is used in its place.
    pub fn from_lookup_with(
        lookup: impl Fn(&str) -> Option<String>,
        mut warn: impl FnMut(&str, &str),
    ) -> Self {
        /// One knob: unset → default, parseable → parsed, anything else →
        /// default plus a warning naming the variable and the value.
        fn knob<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            warn: &mut impl FnMut(&str, &str),
            var: &str,
            default: T,
            parse: impl Fn(&str) -> Option<T>,
        ) -> T {
            match lookup(var) {
                None => default,
                Some(value) => match parse(value.trim()) {
                    Some(parsed) => parsed,
                    None => {
                        warn(var, &value);
                        default
                    }
                },
            }
        }

        let defaults = RuntimeConfig::default();
        RuntimeConfig {
            workers: knob(&lookup, &mut warn, "LOGIT_WORKERS", defaults.workers, |v| {
                v.parse().ok()
            }),
            min_class_size: knob(
                &lookup,
                &mut warn,
                "LOGIT_MIN_CLASS_SIZE",
                defaults.min_class_size,
                |v| v.parse().ok(),
            ),
            block_players: knob(
                &lookup,
                &mut warn,
                "LOGIT_BLOCK_PLAYERS",
                defaults.block_players,
                |v| v.parse().ok(),
            ),
        }
    }

    /// The chunk size a coloured sweep should use for a class of
    /// `class_size` players split across `workers` stepping threads: an
    /// even split capped at [`block_players`](Self::block_players) (when
    /// non-zero), never below 1. More chunks than workers is fine — the
    /// pool's claim counter load-balances them.
    pub fn sweep_chunk(&self, class_size: usize, workers: usize) -> usize {
        let even = class_size.div_ceil(workers.max(1)).max(1);
        if self.block_players == 0 {
            even
        } else {
            even.min(self.block_players)
        }
    }

    /// The worker count with `0` resolved to the host's available
    /// parallelism; never less than 1.
    ///
    /// The host's parallelism is read once and cached:
    /// `std::thread::available_parallelism` re-reads cgroup limits on
    /// every call (syscalls on the Linux hot path), and this resolver sits
    /// inside per-tick worker-count decisions.
    pub fn resolved_workers(&self) -> usize {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let requested = if self.workers == 0 {
            *CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
        } else {
            self.workers
        };
        requested.max(1)
    }

    /// Total stepping threads for a colour class of `class_size` players:
    /// 1 (inline on the caller) when the class is narrower than
    /// [`min_class_size`](Self::min_class_size), otherwise the resolved
    /// worker count capped by the class size.
    pub fn class_workers(&self, class_size: usize) -> usize {
        if class_size < self.min_class_size {
            1
        } else {
            self.resolved_workers().min(class_size).max(1)
        }
    }

    /// Replicas the farmed runner keeps live for a run of `jobs`
    /// independent replicas (or tempering ensembles): one wave, stepped by
    /// the caller plus the pool's workers, one replica each.
    pub fn farm_workers(&self, jobs: usize) -> usize {
        self.resolved_workers().min(jobs).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_from<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn env_lookup_parses_every_knob_and_falls_back_on_garbage() {
        let cfg = RuntimeConfig::from_lookup(lookup_from(&[
            ("LOGIT_WORKERS", "3"),
            ("LOGIT_MIN_CLASS_SIZE", "64"),
            ("LOGIT_BLOCK_PLAYERS", "4096"),
        ]));
        assert_eq!(
            cfg,
            RuntimeConfig {
                workers: 3,
                min_class_size: 64,
                block_players: 4096,
            }
        );

        let garbage = RuntimeConfig::from_lookup(lookup_from(&[
            ("LOGIT_WORKERS", "lots"),
            ("LOGIT_BLOCK_PLAYERS", "a few"),
        ]));
        assert_eq!(garbage, RuntimeConfig::default());

        let unset = RuntimeConfig::from_lookup(|_| None);
        assert_eq!(unset, RuntimeConfig::default());
    }

    #[test]
    fn unparseable_env_values_warn_with_variable_and_rejected_value() {
        let mut warnings: Vec<(String, String)> = Vec::new();
        let cfg = RuntimeConfig::from_lookup_with(
            lookup_from(&[
                ("LOGIT_WORKERS", "lots"),
                ("LOGIT_MIN_CLASS_SIZE", "64"),
                ("LOGIT_BLOCK_PLAYERS", "a few"),
            ]),
            |var, value| warnings.push((var.to_string(), value.to_string())),
        );
        // The fallback behaviour is unchanged: bad values become defaults.
        assert_eq!(
            cfg,
            RuntimeConfig {
                min_class_size: 64,
                ..RuntimeConfig::default()
            }
        );
        // ...but every rejected value is reported, naming the variable.
        assert_eq!(
            warnings,
            vec![
                ("LOGIT_WORKERS".to_string(), "lots".to_string()),
                ("LOGIT_BLOCK_PLAYERS".to_string(), "a few".to_string()),
            ]
        );
    }

    #[test]
    fn parseable_and_unset_env_values_never_warn() {
        let mut warned = 0usize;
        let cfg = RuntimeConfig::from_lookup_with(
            lookup_from(&[("LOGIT_WORKERS", " 3 "), ("LOGIT_BLOCK_PLAYERS", "0")]),
            |_, _| warned += 1,
        );
        assert_eq!(warned, 0);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.block_players, 0);
    }

    #[test]
    fn env_lookup_reads_exactly_the_three_knobs() {
        // One variable per field and nothing else: any other `LOGIT_*`
        // setting is never read, so it cannot change a run.
        let asked = std::cell::RefCell::new(Vec::new());
        let _ = RuntimeConfig::from_lookup(|key| {
            asked.borrow_mut().push(key.to_string());
            None
        });
        assert_eq!(
            asked.into_inner(),
            [
                "LOGIT_WORKERS",
                "LOGIT_MIN_CLASS_SIZE",
                "LOGIT_BLOCK_PLAYERS"
            ]
        );
    }

    #[test]
    fn stderr_warnings_are_deduplicated_per_variable() {
        assert!(super::first_warning("LOGIT_TEST_DEDUP_KNOB"));
        assert!(
            !super::first_warning("LOGIT_TEST_DEDUP_KNOB"),
            "a second warning for the same variable must be suppressed"
        );
        assert!(super::first_warning("LOGIT_TEST_DEDUP_KNOB_TWO"));
        // The ledger is the workspace-wide one: a variable the telemetry
        // layer already warned for stays suppressed here, and vice versa.
        assert!(logit_telemetry::first_warning("LOGIT_TEST_DEDUP_SHARED"));
        assert!(
            !super::first_warning("LOGIT_TEST_DEDUP_SHARED"),
            "runtime and telemetry share one once-per-variable ledger"
        );
    }

    #[test]
    fn class_workers_applies_the_narrow_class_guard() {
        let cfg = RuntimeConfig {
            workers: 4,
            min_class_size: 100,
            ..RuntimeConfig::default()
        };
        assert_eq!(cfg.class_workers(99), 1, "narrow classes stay inline");
        assert_eq!(cfg.class_workers(100), 4, "wide classes get the pool");
        assert_eq!(cfg.class_workers(2), 1, "threshold dominates the cap");

        let tiny = RuntimeConfig {
            workers: 8,
            min_class_size: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!(tiny.class_workers(3), 3, "class size caps the workers");
    }

    #[test]
    fn farm_workers_caps_at_the_job_count() {
        let cfg = RuntimeConfig {
            workers: 8,
            ..RuntimeConfig::default()
        };
        assert_eq!(cfg.farm_workers(3), 3);
        assert_eq!(cfg.farm_workers(100), 8);
        assert_eq!(cfg.farm_workers(1), 1);
    }

    #[test]
    fn sweep_chunk_caps_the_even_split_at_the_block_size() {
        let cfg = RuntimeConfig {
            workers: 4,
            block_players: 1000,
            ..RuntimeConfig::default()
        };
        // Even split below the cap: unchanged.
        assert_eq!(cfg.sweep_chunk(3000, 4), 750);
        // Even split above the cap: blocked.
        assert_eq!(cfg.sweep_chunk(100_000, 4), 1000);
        // Zero disables blocking entirely.
        let unblocked = RuntimeConfig {
            block_players: 0,
            ..cfg
        };
        assert_eq!(unblocked.sweep_chunk(100_000, 4), 25_000);
        // Degenerate inputs never yield a zero chunk.
        assert_eq!(cfg.sweep_chunk(0, 4), 1);
        assert_eq!(cfg.sweep_chunk(10, 0), 10);
    }

    #[test]
    fn resolved_workers_never_returns_zero() {
        let auto = RuntimeConfig::default();
        assert!(auto.resolved_workers() >= 1);
        let explicit = RuntimeConfig {
            workers: 5,
            ..RuntimeConfig::default()
        };
        assert_eq!(explicit.resolved_workers(), 5);
    }
}
