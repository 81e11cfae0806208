//! Properties of `JobSpec::parse`: it never panics on any topology size,
//! and every spec it accepts is small enough to build and meets the builder
//! preconditions; and it never panics on arbitrary text either, rejecting
//! what it refuses with one of the stable admission codes.

use logit_server::job::limits::{MAX_EDGES, MAX_PLAYERS};
use logit_server::{JobSpec, Topology};
use proptest::prelude::*;

/// Every field of a valid job except the topology.
const REST: &str = "game=graphical\ndelta0=2.0\ndelta1=1.0\nrule=logit\nschedule=uniform\n\
                    mode=pipelined\nbeta=1.0\nsteps=100\nsample_every=10\n\
                    observable=fraction1\nreplicas=2\nseed=1";

/// A `u64` whose bit length is uniform on `0..=64`, so every magnitude
/// from 0 to `u64::MAX` is drawn about equally often.
fn log_uniform() -> impl Strategy<Value = u64> {
    (0u32..65, 0u64..u64::MAX).prop_map(|(bits, raw)| match bits {
        0 => 0,
        bits => (raw | 1 << 63) >> (64 - bits),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parse_admits_only_buildable_sizes(
        kind in 0usize..6,
        a in log_uniform(),
        b in log_uniform(),
    ) {
        let topology = match kind {
            0 => format!("topology=ring\nn={a}"),
            1 => format!("topology=clique\nn={a}"),
            2 => format!("topology=torus\nrows={a}\ncols={b}"),
            3 => format!("topology=grid\nrows={a}\ncols={b}"),
            4 => format!("topology=hypercube\ndim={a}"),
            _ => format!("topology=circulant\nn={a}\nk={b}"),
        };
        if let Ok(spec) = JobSpec::parse(&format!("{REST}\n{topology}")) {
            let (players, edges): (u128, u128) = match spec.topology {
                Topology::Ring { n } => {
                    prop_assert!(n >= 3);
                    (n as u128, n as u128)
                }
                Topology::Clique { n } => {
                    let n = n as u128;
                    (n, n * n.saturating_sub(1) / 2)
                }
                Topology::Torus { rows, cols } | Topology::Grid { rows, cols } => {
                    if kind == 2 {
                        prop_assert!(rows >= 3 && cols >= 3);
                    }
                    let players = rows as u128 * cols as u128;
                    (players, players.saturating_mul(2))
                }
                Topology::Hypercube { dim } => {
                    let players = u32::try_from(dim)
                        .ok()
                        .and_then(|dim| 1u128.checked_shl(dim))
                        .unwrap_or(u128::MAX);
                    (players, players.saturating_mul(dim as u128) / 2)
                }
                Topology::Circulant { n, k } => {
                    prop_assert!(k >= 1 && n as u128 > 2 * k as u128);
                    (n as u128, n as u128 * k as u128)
                }
            };
            prop_assert!(players <= MAX_PLAYERS as u128, "{players} players admitted");
            prop_assert!(edges <= MAX_EDGES as u128, "{edges} edges admitted");
        }
    }
}

/// The nine stable `AdmissionError::code` values.
const CODES: [&str; 9] = [
    "missing-field",
    "unknown-field",
    "bad-value",
    "coordination",
    "ising",
    "csr",
    "ladder",
    "queue-full",
    "protocol",
];

/// Every key of the grammar, then keys it does not know (the empty key and
/// a near miss among them).
const KEYS: [&str; 32] = [
    "game",
    "topology",
    "n",
    "rows",
    "cols",
    "dim",
    "k",
    "delta0",
    "delta1",
    "coupling",
    "field",
    "rule",
    "noise",
    "schedule",
    "mode",
    "beta",
    "steps",
    "sample_every",
    "observable",
    "start",
    "replicas",
    "seed",
    "ladder",
    "beta_min",
    "beta_max",
    "rungs",
    "rounds",
    "sweep_ticks",
    "",
    "colour",
    "Seed",
    "beta ",
];

/// Values the grammar accepts somewhere, and hostile ones: empty,
/// negative, `NaN`, infinities, 20-digit integers, extreme floats and a
/// stray `=`.
const VALUES: [&str; 44] = [
    "graphical",
    "ising",
    "ring",
    "clique",
    "torus",
    "grid",
    "hypercube",
    "circulant",
    "logit",
    "metropolis",
    "nbr",
    "uniform",
    "sweep",
    "all",
    "coloured",
    "pipelined",
    "tempered",
    "fraction0",
    "fraction1",
    "potential",
    "zeros",
    "ones",
    "geometric",
    "linear",
    "0",
    "1",
    "3",
    "7",
    "64",
    "1048576",
    "0.5",
    "2.0",
    "",
    "-1",
    "-0.0",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "4.9e-324",
    "99999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "=",
];

/// A valid job of each mode, as `(key, value)` lines.
const BASES: [&[(&str, &str)]; 2] = [
    &[
        ("game", "graphical"),
        ("topology", "ring"),
        ("n", "12"),
        ("delta0", "2.0"),
        ("delta1", "1.0"),
        ("rule", "logit"),
        ("schedule", "coloured"),
        ("mode", "pipelined"),
        ("beta", "1.0"),
        ("steps", "100"),
        ("sample_every", "10"),
        ("observable", "fraction1"),
        ("replicas", "2"),
        ("seed", "1"),
    ],
    &[
        ("game", "ising"),
        ("topology", "torus"),
        ("rows", "4"),
        ("cols", "5"),
        ("coupling", "0.8"),
        ("field", "0.1"),
        ("rule", "nbr"),
        ("noise", "0.1"),
        ("schedule", "sweep"),
        ("mode", "tempered"),
        ("ladder", "geometric"),
        ("beta_min", "0.5"),
        ("beta_max", "2.0"),
        ("rungs", "4"),
        ("rounds", "10"),
        ("sweep_ticks", "20"),
        ("sample_every", "2"),
        ("observable", "potential"),
        ("start", "ones"),
        ("replicas", "3"),
        ("seed", "7"),
    ],
];

/// `parse` returns on `text`, and a rejection carries a stable code that
/// also leads its message.
fn parse_returns_a_typed_result(text: &str) -> Result<(), TestCaseError> {
    let parsed = std::panic::catch_unwind(|| JobSpec::parse(text));
    prop_assert!(parsed.is_ok(), "JobSpec::parse panicked on {text:?}");
    if let Ok(Err(e)) = parsed {
        prop_assert!(CODES.contains(&e.code()), "unstable code `{}`", e.code());
        prop_assert!(e.to_string().starts_with(e.code()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `parse` never panics: on arbitrary bytes read as lossy UTF-8, and
    /// on key=value soups made from a valid job of either mode by edits
    /// that set a key (known or not) to a valid or hostile value, drop it,
    /// or repeat it.
    #[test]
    fn parse_never_panics_and_every_rejection_carries_a_stable_code(
        bytes in prop::collection::vec(0u32..256, 0..200),
        base in 0usize..2,
        edits in prop::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len(), 0usize..3), 0..8),
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        parse_returns_a_typed_result(&String::from_utf8_lossy(&bytes))?;

        let mut lines: Vec<(&str, &str)> = BASES[base].to_vec();
        for (key, value, edit) in edits {
            let (key, value) = (KEYS[key], VALUES[value]);
            match edit {
                0 => match lines.iter_mut().find(|(k, _)| *k == key) {
                    Some(line) => line.1 = value,
                    None => lines.push((key, value)),
                },
                1 => lines.retain(|(k, _)| *k != key),
                _ => lines.push((key, value)),
            }
        }
        let text: Vec<String> = lines.iter().map(|(k, v)| format!("{k}={v}")).collect();
        parse_returns_a_typed_result(&text.join("\n"))?;
    }
}
