//! The paper's analytical join model (§2.1.1, Eqs. 1–7).
//!
//! Setting: a mobile node runs a round-robin channel schedule with period
//! `D`, spending a fraction `f_i` of each round on the AP's channel `i`
//! and paying a switch delay `w` per round. While on-channel it fires join
//! requests every `c` seconds; a request answered after `β ~ U[βmin, βmax]`
//! succeeds only if the response lands inside one of the node's future
//! on-channel windows. Messages are lost independently with probability
//! `h`, and a join needs both directions: factor `(1 − h)²`.
//!
//! Eq. 5 gives the probability `q(m, n, k)` that the `k`-th request of
//! round `m` is answered inside round `n`'s window; Eq. 6 aggregates over a
//! round's requests; Eq. 7 over all round pairs within the time `t` the
//! node stays in range.
//!
//! Implementation note: `q` depends on rounds only through the gap
//! `d = n − m`, so the no-join probability after `s` rounds is
//! `∏_d Q(d)^(s−d)`. `ln Q(d)` is computed once per gap per evaluation:
//! `expected_join_time` builds the prefix once and sums every round's
//! `Σ_d (s−d)·ln Q(d)` from it, which makes the optimizer's repeated
//! evaluations cheap.

/// Parameters of the join model (all times in seconds).
#[derive(Debug, Clone, Copy)]
pub struct JoinModelParams {
    /// Scheduling period `D`.
    pub period: f64,
    /// Fraction of the period spent on the AP's channel, `f_i ∈ [0, 1]`.
    pub fraction: f64,
    /// Channel switch delay `w`.
    pub switch_delay: f64,
    /// Interval between consecutive join requests, `c`.
    pub request_interval: f64,
    /// Fastest AP response, `βmin`.
    pub beta_min: f64,
    /// Slowest AP response, `βmax`.
    pub beta_max: f64,
    /// Per-message loss probability `h`.
    pub loss: f64,
}

impl JoinModelParams {
    /// The parameterization of the paper's Fig. 2 (with `βmax` variable):
    /// `D` = 500 ms, `βmin` = 500 ms, `w` = 7 ms, `c` = 100 ms, `h` = 10 %.
    pub fn figure2(fraction: f64, beta_max: f64) -> JoinModelParams {
        JoinModelParams {
            period: 0.5,
            fraction,
            switch_delay: 0.007,
            request_interval: 0.1,
            beta_min: 0.5,
            beta_max,
            loss: 0.1,
        }
    }

    fn validate(&self) {
        assert!(self.period > 0.0, "period must be positive");
        assert!(
            (0.0..=1.0).contains(&self.fraction),
            "fraction out of [0,1]"
        );
        assert!(self.switch_delay >= 0.0, "negative switch delay");
        assert!(
            self.request_interval > 0.0,
            "request interval must be positive"
        );
        assert!(
            self.beta_min >= 0.0 && self.beta_max >= self.beta_min,
            "bad beta range"
        );
        assert!((0.0..=1.0).contains(&self.loss), "loss out of [0,1]");
    }

    /// Maximum join requests per round: `⌈(D·f_i − w)/c⌉` (Eq. 6's product
    /// bound), clamped at 0 when the on-channel window is shorter than the
    /// switch delay.
    pub fn requests_per_round(&self) -> u32 {
        let window = self.period * self.fraction - self.switch_delay;
        if window <= 0.0 {
            0
        } else {
            (window / self.request_interval).ceil() as u32
        }
    }

    /// Eq. 5: probability that the request sent in segment `k` (1-based) of
    /// a round is answered within the on-channel window `gap` rounds later.
    pub fn q(&self, gap: u32, k: u32) -> f64 {
        self.validate();
        let d = self.period;
        let c = self.request_interval;
        let w = self.switch_delay;
        let fi = self.fraction;
        let kf = k as f64;
        let alpha_min = kf * c + self.beta_min;
        let alpha_max = kf * c + self.beta_max;
        let delta_min = gap as f64 * d + c - w;
        let delta_max = (gap as f64 + fi) * d + c - w;
        if delta_min > alpha_max || delta_max < alpha_min {
            return 0.0;
        }
        if alpha_max <= alpha_min {
            // Degenerate β distribution (βmin == βmax): point mass.
            return f64::from(alpha_min >= delta_min && alpha_min <= delta_max);
        }
        (alpha_max.min(delta_max) - alpha_min.max(delta_min)) / (alpha_max - alpha_min)
    }

    /// Eq. 6: probability that *no* request of a round succeeds with its
    /// response `gap` rounds later, in a channel with loss `h`.
    pub fn q_bar(&self, gap: u32) -> f64 {
        let succ = (1.0 - self.loss) * (1.0 - self.loss);
        let mut prod = 1.0;
        for k in 1..=self.requests_per_round() {
            prod *= 1.0 - self.q(gap, k) * succ;
        }
        prod
    }

    /// The largest gap at which a response can still land on-channel:
    /// beyond it `q_bar(gap) = 1` exactly.
    fn max_gap(&self) -> u32 {
        // Response to the last request arrives by K·c + βmax; window for gap
        // d starts at d·D + c − w.
        let latest = self.requests_per_round() as f64 * self.request_interval + self.beta_max;
        ((latest + self.switch_delay) / self.period).ceil() as u32 + 1
    }

    /// Eq. 7: probability of obtaining at least one lease within `t`
    /// seconds in range.
    pub fn p_join(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "negative time in range");
        let rounds = (t / self.period).ceil() as u32;
        1.0 - self.p_no_join_rounds(rounds)
    }

    /// Probability of *not* joining within `rounds` scheduling rounds.
    pub fn p_no_join_rounds(&self, rounds: u32) -> f64 {
        self.p_no_join_given(&self.ln_q_bar_prefix(rounds), rounds)
    }

    /// The last gap `P(no join within rounds)` consults, or `None` when
    /// that probability is 1 outright (no rounds, or never on channel).
    fn last_gap(&self, rounds: u32) -> Option<u32> {
        if rounds == 0 || self.fraction == 0.0 {
            None
        } else {
            Some(self.max_gap().min(rounds - 1))
        }
    }

    /// `ln Q(gap)` for every gap `P(no join within rounds)` consults, in
    /// gap order, cut just before the first gap with `Q ≤ 0` (a round
    /// pair that surely joins). Serves every round count up to `rounds`.
    fn ln_q_bar_prefix(&self, rounds: u32) -> Vec<f64> {
        let Some(last) = self.last_gap(rounds) else {
            return Vec::new();
        };
        let mut ln_q = Vec::with_capacity(last as usize + 1);
        for gap in 0..=last {
            let q = self.q_bar(gap);
            if q <= 0.0 {
                break;
            }
            ln_q.push(q.ln());
        }
        ln_q
    }

    /// `P(no join within rounds)` from a prefix built by
    /// [`Self::ln_q_bar_prefix`] for at least `rounds` rounds.
    fn p_no_join_given(&self, ln_q: &[f64], rounds: u32) -> f64 {
        let Some(last) = self.last_gap(rounds) else {
            return 1.0;
        };
        // A prefix cut at or before `last` hit a certain join.
        let Some(used) = ln_q.get(..=last as usize) else {
            return 0.0;
        };
        let mut log_p = 0.0f64;
        for (gap, &ln_q) in (0u32..).zip(used) {
            // Pairs (m, n) with n − m = gap and 1 ≤ m ≤ n ≤ rounds.
            let pairs = (rounds - gap) as f64;
            log_p += pairs * ln_q;
        }
        log_p.exp()
    }

    /// Expected time to obtain a lease, truncated at `horizon`:
    /// `g_T(f_i) = ∫₀ᵀ P(no join by t) dt`, evaluated as a round-level sum.
    /// This is the `g_T` of the paper's optimization constraint (Eq. 9).
    pub fn expected_join_time(&self, horizon: f64) -> f64 {
        assert!(horizon >= 0.0, "negative horizon");
        let rounds = (horizon / self.period).ceil() as u32;
        // The last summed round consults the most gaps; one prefix serves all.
        let ln_q = self.ln_q_bar_prefix(rounds.saturating_sub(1));
        let mut acc = 0.0;
        for s in 0..rounds {
            // P(no join during rounds 1..=s) holds for t ∈ [s·D, (s+1)·D).
            let step = self.period.min(horizon - s as f64 * self.period);
            acc += self.p_no_join_given(&ln_q, s) * step.max(0.0);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(fraction: f64) -> JoinModelParams {
        JoinModelParams::figure2(fraction, 5.0)
    }

    #[test]
    fn q_is_a_probability_everywhere() {
        for f in [0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
            let p = params(f);
            for gap in 0..30 {
                for k in 1..=p.requests_per_round() {
                    let q = p.q(gap, k);
                    assert!((0.0..=1.0).contains(&q), "q({gap},{k}) = {q} at f = {f}");
                }
            }
        }
    }

    #[test]
    fn requests_per_round_ceiling() {
        // D·f − w = 500·0.2 − 7 = 93 ms; c = 100 ms → ⌈0.93⌉ = 1.
        assert_eq!(params(0.2).requests_per_round(), 1);
        // f = 0.5: (250 − 7)/100 = 2.43 → 3.
        assert_eq!(params(0.5).requests_per_round(), 3);
        // f = 1: (500 − 7)/100 = 4.93 → 5.
        assert_eq!(params(1.0).requests_per_round(), 5);
        // Window smaller than the switch delay: no requests fit.
        assert_eq!(params(0.01).requests_per_round(), 0);
    }

    #[test]
    fn p_join_monotone_in_fraction() {
        let t = 4.0;
        let mut last = -1.0;
        for f in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let p = params(f).p_join(t);
            assert!((0.0..=1.0).contains(&p));
            assert!(
                p >= last - 1e-9,
                "p_join must not decrease with fraction: f={f} p={p} last={last}"
            );
            last = p;
        }
    }

    #[test]
    fn p_join_monotone_in_time() {
        let p = params(0.4);
        let mut last = -1.0;
        for t in [0.0, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let v = p.p_join(t);
            assert!(v >= last - 1e-12, "p_join must grow with t: t={t} v={v}");
            last = v;
        }
    }

    #[test]
    fn zero_fraction_never_joins() {
        assert_eq!(params(0.0).p_join(100.0), 0.0);
    }

    #[test]
    fn full_time_with_short_beta_joins_reliably() {
        // f = 1, βmax = 1 s, 4 s in range: nearly certain.
        let p = JoinModelParams::figure2(1.0, 1.0);
        assert!(p.p_join(4.0) > 0.99, "p = {}", p.p_join(4.0));
    }

    #[test]
    fn figure2_anchor_points() {
        // The anchors the paper quotes in §2.1.2: "the probability of
        // getting a lease during the first t = 4 seconds falls from 75% to
        // 20% when the percentage of time devoted to the AP reduces from
        // 30% to 10%" — these figures correspond to βmax = 5 s.
        let lo = JoinModelParams::figure2(0.1, 5.0).p_join(4.0);
        assert!((0.12..0.32).contains(&lo), "p(f=0.1) = {lo}, paper ≈ 0.20");
        let mid = JoinModelParams::figure2(0.3, 5.0).p_join(4.0);
        assert!(
            (0.65..0.88).contains(&mid),
            "p(f=0.3) = {mid}, paper ≈ 0.75"
        );
        let hi = JoinModelParams::figure2(1.0, 5.0).p_join(4.0);
        assert!(
            hi > 0.95,
            "p(f=1) = {hi}: full time on channel assures the join"
        );
    }

    #[test]
    fn shorter_beta_max_joins_faster() {
        // Fig. 3's message: smaller βmax ⇒ higher join probability at a
        // fixed fraction.
        let mut last = 2.0;
        for beta_max in [1.0f64, 2.0, 5.0, 10.0] {
            let p = JoinModelParams::figure2(0.25, beta_max).p_join(4.0);
            assert!(
                p <= last + 1e-9,
                "p must fall as βmax grows: βmax={beta_max} p={p}"
            );
            last = p;
        }
    }

    #[test]
    fn switch_delay_has_minor_effect() {
        // Fig. 3 also notes w = 0 barely helps: β and the schedule dominate.
        let with_w = JoinModelParams::figure2(0.5, 10.0).p_join(4.0);
        let without_w = JoinModelParams {
            switch_delay: 0.0,
            ..JoinModelParams::figure2(0.5, 10.0)
        }
        .p_join(4.0);
        assert!(without_w >= with_w);
        assert!(
            (without_w - with_w) < 0.15,
            "switch delay should be a second-order effect: Δ = {}",
            without_w - with_w
        );
    }

    #[test]
    fn expected_join_time_decreases_with_fraction() {
        let t = 20.0;
        let g_low = params(0.1).expected_join_time(t);
        let g_high = params(0.9).expected_join_time(t);
        assert!(g_high < g_low, "g({t}) low-f {g_low} vs high-f {g_high}");
        assert!(g_low <= t + 1e-9);
        assert!(g_high > 0.0);
    }

    #[test]
    fn expected_join_time_zero_fraction_is_horizon() {
        let g = params(0.0).expected_join_time(12.0);
        assert!((g - 12.0).abs() < 1e-9);
    }

    /// The per-round kernel: `Q(gap)` recomputed from scratch for every
    /// round count, as Eq. 7 reads.
    fn reference_p_no_join(p: &JoinModelParams, rounds: u32) -> f64 {
        if rounds == 0 || p.fraction == 0.0 {
            return 1.0;
        }
        let mut log_p = 0.0f64;
        for gap in 0..=p.max_gap().min(rounds - 1) {
            let q = p.q_bar(gap);
            if q <= 0.0 {
                return 0.0;
            }
            log_p += (rounds - gap) as f64 * q.ln();
        }
        log_p.exp()
    }

    #[test]
    fn shared_prefix_is_bit_identical_to_the_per_round_kernel() {
        let mut cases = Vec::new();
        // f = 0.01: the window is shorter than w, so no requests fit.
        for f in [0.0, 0.01, 0.05, 0.2, 0.5, 1.0] {
            // βmax = 0.5 = βmin: the degenerate point-mass β.
            for beta_max in [0.5, 1.0, 5.0, 10.0] {
                cases.push(JoinModelParams::figure2(f, beta_max));
            }
        }
        // Loss-free with q = 1 at gap 1, degenerate and spread β: Q(1) = 0,
        // so every round count past 1 short-circuits to a certain join.
        let certain = [
            JoinModelParams {
                loss: 0.0,
                ..JoinModelParams::figure2(1.0, 0.5)
            },
            JoinModelParams {
                loss: 0.0,
                ..JoinModelParams::figure2(1.0, 0.55)
            },
        ];
        for p in &certain {
            assert_eq!(p.q_bar(1), 0.0);
            assert_eq!(p.p_no_join_rounds(2), 0.0);
        }
        cases.extend(certain);

        for p in &cases {
            for rounds in 0..48 {
                assert_eq!(
                    p.p_no_join_rounds(rounds).to_bits(),
                    reference_p_no_join(p, rounds).to_bits(),
                    "p_no_join_rounds({rounds}) for {p:?}"
                );
            }
            // Horizons off the D = 0.5 s grid exercise the partial last step.
            for horizon in [0.0, 0.3, 0.5, 0.9, 3.7, 4.0, 12.25, 80.0] {
                let rounds = (horizon / p.period).ceil() as u32;
                let mut reference = 0.0;
                for s in 0..rounds {
                    let step = p.period.min(horizon - s as f64 * p.period);
                    reference += reference_p_no_join(p, s) * step.max(0.0);
                }
                assert_eq!(
                    p.expected_join_time(horizon).to_bits(),
                    reference.to_bits(),
                    "g_T({horizon}) for {p:?}"
                );
            }
        }
    }

    #[test]
    fn q_bar_is_one_beyond_max_gap() {
        let p = params(0.5);
        let far = p.max_gap() + 5;
        assert_eq!(p.q_bar(far), 1.0);
    }
}
