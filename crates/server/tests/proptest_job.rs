//! Property: `JobSpec::parse` never panics on any topology size, and every
//! spec it accepts is small enough to build and meets the builder
//! preconditions.

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
