//! The throughput-maximization framework (§2.1.3, Eqs. 8–10) and the
//! **dividing speed**.
//!
//! The node is in range of APs for `T` seconds (at a Wi-Fi range of `R`,
//! `T = 2R / v` for speed `v`). Channel `i` offers `Bʲᵢ` end-to-end
//! bandwidth from already-joined APs plus `Bᵃᵢ` from APs still to be
//! joined; joining costs the expected join time `g_T(f_i)` from the join
//! model, during which the new bandwidth is not yet flowing. The optimizer
//! chooses the schedule fractions `f_i`:
//!
//! ```text
//! max  T · Σᵢ fᵢ·Bw
//! s.t. 0 ≤ fᵢ ≤ (Bʲᵢ + (1 − g_T(fᵢ)/T)·Bᵃᵢ) / Bw        (9)
//!      Σᵢ (fᵢ·D + ⌈fᵢ⌉·w) ≤ D                            (10)
//! ```
//!
//! Solved numerically by grid search (the feasible region is
//! low-dimensional and the objective is monotone in each `fᵢ` up to its
//! cap). The paper's Fig. 4 result: below a **dividing speed** (≈ 10 m/s
//! for typical parameters) it pays to split time across channels; above
//! it, all time belongs on one channel.

use crate::join_model::JoinModelParams;

/// One channel's bandwidth situation (all rates in bits/s).
#[derive(Debug, Clone, Copy)]
pub struct ChannelOffer {
    /// End-to-end bandwidth already joined (`Bʲᵢ`): usable from t = 0.
    pub joined_bps: f64,
    /// End-to-end bandwidth available after a successful join (`Bᵃᵢ`).
    pub available_bps: f64,
}

/// Inputs to the optimization.
#[derive(Debug, Clone)]
pub struct OptimizerInputs {
    /// Per-channel offers.
    pub channels: Vec<ChannelOffer>,
    /// Wireless channel capacity `Bw`, bits/s (the paper uses 11 Mb/s).
    pub wireless_bps: f64,
    /// Time in range `T`, seconds.
    pub horizon: f64,
    /// Join-model parameters (the `fraction` field is ignored; the
    /// optimizer sweeps it).
    pub join: JoinModelParams,
    /// Grid resolution for each `f_i`.
    pub grid: u32,
}

/// The optimal schedule found.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Optimal fraction per channel.
    pub fractions: Vec<f64>,
    /// Attained bandwidth per channel, bits/s (`fᵢ·Bw`).
    pub per_channel_bps: Vec<f64>,
    /// Total objective, bits (`T · Σ fᵢ·Bw`).
    pub total_bits: f64,
}

impl Schedule {
    /// Total attained bandwidth, bits/s.
    pub fn total_bps(&self) -> f64 {
        self.per_channel_bps.iter().sum()
    }
}

/// The expected join time `g_T(f)` at fraction `f` (Eq. 9's `g_T`).
fn join_time(inputs: &OptimizerInputs, f: f64) -> f64 {
    JoinModelParams {
        fraction: f,
        ..inputs.join
    }
    .expected_join_time(inputs.horizon)
}

/// The per-channel cap of constraint (9), given the join time `g` at the
/// fraction under test.
fn fraction_cap(offer: &ChannelOffer, inputs: &OptimizerInputs, g: f64) -> f64 {
    let usable = offer.joined_bps + (1.0 - g / inputs.horizon) * offer.available_bps;
    (usable / inputs.wireless_bps).clamp(0.0, 1.0)
}

/// Solve the two-channel instance by grid search. (The paper's Fig. 4
/// evaluates exactly this shape; `solve_n` below generalizes.)
pub fn solve(inputs: &OptimizerInputs) -> Schedule {
    solve_n(inputs)
}

/// Solve for any (small) number of channels by recursive grid search over
/// the simplex cut by constraint (10). Per-channel caps are precomputed —
/// constraint (9) couples `f_i` only to its own channel — and `g_T(f)`,
/// which depends on `f` alone, is evaluated once per grid step.
pub fn solve_n(inputs: &OptimizerInputs) -> Schedule {
    assert!(!inputs.channels.is_empty(), "solve_n: no channels");
    assert!(inputs.grid >= 2, "solve_n: grid too coarse");
    assert!(inputs.horizon > 0.0, "solve_n: non-positive horizon");
    let n = inputs.channels.len();
    let w_frac = inputs.join.switch_delay / inputs.period();
    let steps: Vec<(f64, f64)> = (0..=inputs.grid)
        .map(|step| {
            let f = step as f64 / inputs.grid as f64;
            (f, join_time(inputs, f))
        })
        .collect();
    // feasible[idx][step] = does f = step/grid satisfy constraint (9)?
    let feasible: Vec<Vec<bool>> = inputs
        .channels
        .iter()
        .map(|offer| {
            steps
                .iter()
                .map(|&(f, g)| f <= fraction_cap(offer, inputs, g) + 1e-12)
                .collect()
        })
        .collect();
    let mut best = Schedule {
        fractions: vec![0.0; n],
        per_channel_bps: vec![0.0; n],
        total_bits: 0.0,
    };
    let mut current = vec![0.0f64; n];
    search(inputs, &feasible, 0, 1.0, w_frac, &mut current, &mut best);
    best
}

impl OptimizerInputs {
    fn period(&self) -> f64 {
        self.join.period
    }
}

#[allow(clippy::too_many_arguments)]
fn search(
    inputs: &OptimizerInputs,
    feasible: &[Vec<bool>],
    idx: usize,
    budget: f64,
    w_frac: f64,
    current: &mut Vec<f64>,
    best: &mut Schedule,
) {
    let n = inputs.channels.len();
    if idx == n {
        let total_bps: f64 = current.iter().map(|&f| f * inputs.wireless_bps).sum();
        let total_bits = total_bps * inputs.horizon;
        if total_bits > best.total_bits {
            best.fractions = current.clone();
            best.per_channel_bps = current.iter().map(|&f| f * inputs.wireless_bps).collect();
            best.total_bits = total_bits;
        }
        return;
    }
    let steps = inputs.grid;
    for step in 0..=steps {
        let f = step as f64 / steps as f64;
        // Constraint (10): each non-zero fraction also costs w.
        let switch_cost = if f > 0.0 { w_frac } else { 0.0 };
        if f + switch_cost > budget + 1e-12 {
            break;
        }
        // Constraint (9), precomputed. (Skip rather than break: the cap
        // grows with f too, so the crossing need not be monotone.)
        if !feasible[idx][step as usize] {
            continue;
        }
        current[idx] = f;
        search(
            inputs,
            feasible,
            idx + 1,
            budget - f - switch_cost,
            w_frac,
            current,
            best,
        );
    }
    current[idx] = 0.0;
}

/// The paper's Fig. 4 scenario: 11 Mb/s wireless capacity, a 100 m range,
/// channel 1 carrying `joined_share` of `Bw` already joined and channel 2
/// offering `1 − joined_share` still to join.
pub fn figure4_inputs(joined_share: f64, speed_mps: f64, beta_max: f64) -> OptimizerInputs {
    assert!((0.0..=1.0).contains(&joined_share), "bad share");
    assert!(speed_mps > 0.0, "bad speed");
    let wireless = 11_000_000.0;
    let range_m = 100.0;
    OptimizerInputs {
        channels: vec![
            ChannelOffer {
                joined_bps: joined_share * wireless,
                available_bps: 0.0,
            },
            ChannelOffer {
                joined_bps: 0.0,
                available_bps: (1.0 - joined_share) * wireless,
            },
        ],
        wireless_bps: wireless,
        horizon: 2.0 * range_m / speed_mps,
        join: JoinModelParams::figure2(0.0, beta_max),
        grid: 50,
    }
}

/// Find the dividing speed for a Fig. 4 scenario.
///
/// Above this speed, joining APs on the second channel stops paying: the
/// expected join time `g_T` consumes the shrinking time-in-range `T`, and
/// the optimal schedule recovers less than `threshold` (e.g. 0.5 = half)
/// of the second channel's available bandwidth. Under the literal
/// Eqs. 8–10 the second channel's allocation declines *smoothly* with
/// speed rather than snapping to zero — the hard "stay on one channel"
/// rule the paper lands on also leans on the empirical DHCP/TCP penalties
/// of §2.2, which the full-system simulation reproduces — so the dividing
/// speed is defined by this recovery threshold. Binary search over
/// `[lo, hi]` m/s.
pub fn dividing_speed(joined_share: f64, beta_max: f64, lo: f64, hi: f64, threshold: f64) -> f64 {
    assert!(lo > 0.0 && hi > lo, "bad speed bracket");
    assert!((0.0..=1.0).contains(&threshold), "bad threshold");
    let second_channel_worthwhile = |v: f64| -> bool {
        let inputs = figure4_inputs(joined_share, v, beta_max);
        let available = inputs.channels[1].available_bps;
        let sched = solve(&inputs);
        sched.per_channel_bps[1] > threshold * available
    };
    // If even the slowest speed can't recover the threshold, the divide is
    // below the bracket; if the fastest still can, above.
    if !second_channel_worthwhile(lo) {
        return lo;
    }
    if second_channel_worthwhile(hi) {
        return hi;
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..20 {
        let mid = 0.5 * (lo + hi);
        if second_channel_worthwhile(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Fig4Scenario;

    /// `solve_n` with `g_T(f)` re-evaluated for every channel.
    fn per_channel_join_time_solve(inputs: &OptimizerInputs) -> Schedule {
        let feasible: Vec<Vec<bool>> = inputs
            .channels
            .iter()
            .map(|offer| {
                (0..=inputs.grid)
                    .map(|step| {
                        let f = step as f64 / inputs.grid as f64;
                        f <= fraction_cap(offer, inputs, join_time(inputs, f)) + 1e-12
                    })
                    .collect()
            })
            .collect();
        let n = inputs.channels.len();
        let mut best = Schedule {
            fractions: vec![0.0; n],
            per_channel_bps: vec![0.0; n],
            total_bits: 0.0,
        };
        let w_frac = inputs.join.switch_delay / inputs.period();
        search(
            inputs,
            &feasible,
            0,
            1.0,
            w_frac,
            &mut vec![0.0; n],
            &mut best,
        );
        best
    }

    #[test]
    fn one_join_time_per_step_matches_per_channel_reference() {
        for scenario in Fig4Scenario::ALL {
            for v in [2.5, 3.3, 5.0, 6.6, 10.0, 20.0] {
                for beta_max in [2.0, 10.0] {
                    let inputs = scenario.inputs(v, beta_max);
                    assert_eq!(
                        solve_n(&inputs),
                        per_channel_join_time_solve(&inputs),
                        "{scenario:?} at {v} m/s, βmax {beta_max}"
                    );
                }
            }
        }
    }

    #[test]
    fn slow_speed_splits_channels() {
        // 2.5 m/s ⇒ T = 80 s: plenty of time to pay the join cost on
        // channel 2 and harvest its 75 % of Bw.
        let sched = solve(&figure4_inputs(0.25, 2.5, 10.0));
        assert!(
            sched.fractions[1] > 0.3,
            "f2 = {} should be large",
            sched.fractions[1]
        );
        assert!(sched.fractions[0] > 0.0);
    }

    #[test]
    fn speed_erodes_second_channel_bandwidth() {
        // The Fig. 4 shape: as speed rises, the expected join time eats a
        // growing share of the time in range and the optimizer recovers
        // less and less of channel 2's available bandwidth.
        let inputs_slow = figure4_inputs(0.25, 2.5, 10.0);
        let inputs_fast = figure4_inputs(0.25, 20.0, 10.0);
        let slow = solve(&inputs_slow);
        let fast = solve(&inputs_fast);
        let available = inputs_slow.channels[1].available_bps;
        assert!(
            slow.per_channel_bps[1] > 0.6 * available,
            "at 2.5 m/s ch2 recovers {} of {available}",
            slow.per_channel_bps[1]
        );
        assert!(
            fast.per_channel_bps[1] < slow.per_channel_bps[1],
            "ch2 bandwidth must decline with speed: fast {} vs slow {}",
            fast.per_channel_bps[1],
            slow.per_channel_bps[1]
        );
    }

    #[test]
    fn joined_channel_always_fully_used_up_to_cap() {
        for share in [0.25, 0.5, 0.75] {
            for v in [2.5, 5.0, 10.0, 20.0] {
                let inputs = figure4_inputs(share, v, 10.0);
                let sched = solve(&inputs);
                // Attained on channel 1 never exceeds its offer.
                assert!(sched.per_channel_bps[0] <= share * inputs.wireless_bps + 1e-6);
                // And the schedule respects Σ f + switching ≤ 1.
                let w_frac = inputs.join.switch_delay / inputs.join.period;
                let used: f64 = sched
                    .fractions
                    .iter()
                    .map(|&f| f + if f > 0.0 { w_frac } else { 0.0 })
                    .sum();
                assert!(used <= 1.0 + 1e-9, "schedule over-committed: {used}");
            }
        }
    }

    #[test]
    fn objective_never_decreases_with_slower_speed() {
        // More time in range can only help total bits.
        let mut last = f64::INFINITY;
        for v in [2.5, 3.3, 5.0, 6.6, 10.0, 20.0] {
            let sched = solve(&figure4_inputs(0.5, v, 10.0));
            assert!(
                sched.total_bits <= last + 1e-6,
                "total bits must shrink with speed"
            );
            last = sched.total_bits;
        }
    }

    #[test]
    fn dividing_speed_in_paper_band() {
        // "Quantitatively, this speed is less than 10 m/s for most
        // scenarios" — the speed at which half of channel 2's available
        // bandwidth becomes unrecoverable sits in low vehicular speeds.
        let v = dividing_speed(0.25, 10.0, 1.0, 60.0, 0.5);
        assert!(
            (2.0..=40.0).contains(&v),
            "dividing speed {v} m/s outside plausible band"
        );
    }

    #[test]
    fn shorter_beta_extends_multi_channel_regime() {
        // Faster-responding APs (smaller βmax) keep channel 2 worthwhile up
        // to higher speeds.
        let v_slow_aps = dividing_speed(0.25, 10.0, 0.5, 60.0, 0.5);
        let v_fast_aps = dividing_speed(0.25, 2.0, 0.5, 60.0, 0.5);
        assert!(
            v_fast_aps >= v_slow_aps - 1e-6,
            "divide {v_fast_aps} (β=2) vs {v_slow_aps} (β=10)"
        );
    }

    #[test]
    fn three_channel_instance_solves() {
        let wireless = 11_000_000.0;
        let inputs = OptimizerInputs {
            channels: vec![
                ChannelOffer {
                    joined_bps: 0.4 * wireless,
                    available_bps: 0.0,
                },
                ChannelOffer {
                    joined_bps: 0.0,
                    available_bps: 0.3 * wireless,
                },
                ChannelOffer {
                    joined_bps: 0.0,
                    available_bps: 0.3 * wireless,
                },
            ],
            wireless_bps: wireless,
            horizon: 60.0,
            join: JoinModelParams::figure2(0.0, 5.0),
            grid: 20,
        };
        let sched = solve_n(&inputs);
        assert_eq!(sched.fractions.len(), 3);
        assert!(sched.total_bps() > 0.0);
        let sum: f64 = sched.fractions.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
    }

    #[test]
    fn zero_offer_gets_zero_fraction() {
        let wireless = 11_000_000.0;
        let inputs = OptimizerInputs {
            channels: vec![
                ChannelOffer {
                    joined_bps: 0.5 * wireless,
                    available_bps: 0.0,
                },
                ChannelOffer {
                    joined_bps: 0.0,
                    available_bps: 0.0,
                },
            ],
            wireless_bps: wireless,
            horizon: 30.0,
            join: JoinModelParams::figure2(0.0, 5.0),
            grid: 40,
        };
        let sched = solve(&inputs);
        assert_eq!(sched.fractions[1], 0.0);
        assert!((sched.fractions[0] - 0.5).abs() < 0.03);
    }
}
