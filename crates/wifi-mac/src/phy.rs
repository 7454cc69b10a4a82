//! PHY model: path loss, frame error rate, and airtime.
//!
//! The paper's experiments ran over 802.11b/g radios at vehicular range; its
//! model abstracts the channel as "message loss probability `h`" (10 % in
//! the paper's parameterization). This module supplies that abstraction from
//! first principles so experiments can also vary distance:
//!
//! * **Path loss** — log-distance model: `PL(d) = PL₀ + 10·n·log₁₀(d/d₀)`
//!   with an urban-outdoor exponent. Received power − noise floor = SNR.
//! * **Frame error rate** — logistic curve in SNR, scaled by frame length
//!   (longer frames intersect more channel errors).
//! * **Airtime** — DIFS + mean backoff + preamble + payload at the 802.11b
//!   11 Mb/s rate the paper assumes (`Bw = 11 Mbps` in §2.1.3).
//!
//! Data frames additionally model the MAC's ARQ: up to `data_retries`
//! retransmissions collapse into an *effective* delivery probability and an
//! *expected* airtime, so the simulator does not pay per-ACK events.
//! Management frames get no MAC retries — exactly the regime the paper's
//! join model studies, where each lost handshake message costs a full
//! protocol timeout.
//!
//! Defaults are calibrated so that a node inside the paper's assumed 100 m
//! range sees on the order of 10 % management-frame loss (`h = 0.1`),
//! falling off steeply beyond it.

use sim_engine::time::Duration;

/// Instantaneous link quality between two stations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-noise ratio, dB.
    pub snr_db: f64,
    /// Per-attempt frame error probability for a reference-length frame.
    pub per: f64,
}

/// PHY model parameters.
#[derive(Debug, Clone)]
pub struct PhyConfig {
    /// Transmit power, dBm (typical AP/client: 20 dBm = 100 mW).
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, dB.
    pub ref_loss_db: f64,
    /// Path-loss exponent (free space 2.0; urban street canyon ≈ 3.0).
    pub path_loss_exponent: f64,
    /// Receiver noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// SNR at which the error curve crosses 50 %, dB.
    pub per_midpoint_snr_db: f64,
    /// Logistic slope of the error curve, dB per e-fold.
    pub per_slope_db: f64,
    /// Frame length at which `per` is quoted, bytes.
    pub reference_frame_len: usize,
    /// PHY bit rate, bits/s (802.11b long-preamble DSSS: 11 Mb/s).
    pub bitrate_bps: u64,
    /// PLCP preamble + header time (long preamble: 192 µs).
    pub preamble: Duration,
    /// DIFS, the idle time before contention (802.11b: 50 µs).
    pub difs: Duration,
    /// Mean random backoff (CWmin/2 × 20 µs slots ≈ 310 µs for CWmin 31).
    pub mean_backoff: Duration,
    /// MAC retransmission budget for **data** frames (802.11 default long
    /// retry limit is 7 total attempts).
    pub data_retries: u32,
}

impl Default for PhyConfig {
    fn default() -> Self {
        PhyConfig {
            tx_power_dbm: 20.0,
            ref_loss_db: 40.0,
            path_loss_exponent: 3.5,
            noise_floor_dbm: -95.0,
            per_midpoint_snr_db: 7.0,
            per_slope_db: 2.0,
            reference_frame_len: 400,
            bitrate_bps: 11_000_000,
            preamble: Duration::from_micros(192),
            difs: Duration::from_micros(50),
            mean_backoff: Duration::from_micros(310),
            data_retries: 6,
        }
    }
}

impl PhyConfig {
    /// Link quality at `distance_m` metres (clamped below at 1 m).
    pub fn link_at(&self, distance_m: f64) -> LinkQuality {
        let d = distance_m.max(1.0);
        let path_loss = self.ref_loss_db + 10.0 * self.path_loss_exponent * d.log10();
        let rssi = self.tx_power_dbm - path_loss;
        let snr = rssi - self.noise_floor_dbm;
        let per = 1.0 / (1.0 + ((snr - self.per_midpoint_snr_db) / self.per_slope_db).exp());
        LinkQuality {
            rssi_dbm: rssi,
            snr_db: snr,
            per,
        }
    }

    /// Per-attempt error probability for a frame of `len` bytes at
    /// `distance_m`: the reference PER rescaled through the equivalent
    /// bit-error process, `1 − (1 − per)^(len/ref_len)`.
    pub fn frame_error_prob(&self, distance_m: f64, len: usize) -> f64 {
        self.frame_error_from_per(self.link_at(distance_m).per, len)
    }

    /// [`Self::frame_error_prob`] from the reference PER of an
    /// already-computed [`LinkQuality`]: a caller that keeps the link
    /// quality at one distance pays `link_at`'s `log10` and `exp` once
    /// for every frame length sent over it.
    pub fn frame_error_from_per(&self, per: f64, len: usize) -> f64 {
        let exponent = len as f64 / self.reference_frame_len as f64;
        1.0 - (1.0 - per).powf(exponent)
    }

    /// Probability a frame is delivered within `attempts` tries (ARQ).
    pub fn delivery_prob(&self, per_attempt_error: f64, attempts: u32) -> f64 {
        1.0 - per_attempt_error.powi(attempts as i32)
    }

    /// Effective delivery probability of a **data** frame, including MAC
    /// retries.
    pub fn data_delivery_prob(&self, distance_m: f64, len: usize) -> f64 {
        self.data_delivery_prob_from_error(self.frame_error_prob(distance_m, len))
    }

    /// [`Self::data_delivery_prob`] from an already-computed per-attempt
    /// error. The hot path computes `frame_error_prob` once per frame and
    /// feeds it to both this and [`Self::expected_data_airtime_from_error`]
    /// — the two must stay arithmetically identical to their
    /// distance-taking twins (event timing is bit-sensitive).
    pub fn data_delivery_prob_from_error(&self, per_attempt_error: f64) -> f64 {
        self.delivery_prob(per_attempt_error, self.data_retries + 1)
    }

    /// Effective delivery probability of a **management** frame — a single
    /// attempt, per the paper's join model.
    pub fn mgmt_delivery_prob(&self, distance_m: f64, len: usize) -> f64 {
        1.0 - self.frame_error_prob(distance_m, len)
    }

    /// Airtime of a single transmission attempt of `len` bytes, including
    /// channel access (DIFS + mean backoff) and preamble.
    pub fn airtime(&self, len: usize) -> Duration {
        let payload_ns = (len as u64 * 8).saturating_mul(1_000_000_000) / self.bitrate_bps;
        self.difs + self.mean_backoff + self.preamble + Duration::from_nanos(payload_ns)
    }

    /// Expected airtime of a data frame including retransmissions:
    /// `airtime × E[attempts]`, with `E[attempts]` the truncated-geometric
    /// mean `(1 − e^(r+1)) / (1 − e)` for per-attempt error `e`.
    pub fn expected_data_airtime(&self, distance_m: f64, len: usize) -> Duration {
        self.expected_data_airtime_from_error(self.frame_error_prob(distance_m, len), len)
    }

    /// [`Self::expected_data_airtime`] from an already-computed per-attempt
    /// error (see [`Self::data_delivery_prob_from_error`]).
    pub fn expected_data_airtime_from_error(&self, per_attempt_error: f64, len: usize) -> Duration {
        let e = per_attempt_error;
        let attempts = if e >= 1.0 {
            (self.data_retries + 1) as f64
        } else {
            (1.0 - e.powi(self.data_retries as i32 + 1)) / (1.0 - e)
        };
        self.airtime(len).mul_f64(attempts)
    }

    /// The distance at which the reference-frame PER crosses `per`: a
    /// practical "range" figure. The paper assumes a 100 m Wi-Fi range; the
    /// default calibration puts `range_at_per(0.5)` near there.
    pub fn range_at_per(&self, per: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&per) && per > 0.0,
            "range_at_per: per out of (0,1): {per}"
        );
        // Invert the logistic for the SNR, then the path-loss model for d.
        let snr = self.per_midpoint_snr_db + self.per_slope_db * ((1.0 - per) / per).ln();
        let rssi = snr + self.noise_floor_dbm;
        let path_loss = self.tx_power_dbm - rssi;
        10f64.powf((path_loss - self.ref_loss_db) / (10.0 * self.path_loss_exponent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closer_is_better() {
        let phy = PhyConfig::default();
        let near = phy.link_at(10.0);
        let far = phy.link_at(120.0);
        assert!(near.rssi_dbm > far.rssi_dbm);
        assert!(near.snr_db > far.snr_db);
        assert!(near.per < far.per);
    }

    #[test]
    fn per_is_probability_at_all_distances() {
        let phy = PhyConfig::default();
        for d in [0.0, 1.0, 10.0, 50.0, 100.0, 200.0, 1000.0] {
            let q = phy.link_at(d);
            assert!((0.0..=1.0).contains(&q.per), "per {} at {d} m", q.per);
        }
    }

    #[test]
    fn default_calibration_matches_paper_regime() {
        let phy = PhyConfig::default();
        // Mid-range loss near the paper's h = 10 %: somewhere inside the
        // 100 m range the mgmt loss should be ≈ 0.1.
        let at_80 = phy.frame_error_prob(80.0, 400);
        assert!(
            (0.02..0.40).contains(&at_80),
            "80 m reference PER {at_80} outside plausible band"
        );
        // Effective range (50 % PER) should be in the ballpark of the
        // paper's assumed 100 m.
        let range = phy.range_at_per(0.5);
        assert!((80.0..160.0).contains(&range), "50% PER range {range} m");
        // Well out of range the link is dead.
        assert!(phy.frame_error_prob(400.0, 400) > 0.99);
    }

    #[test]
    fn range_at_per_inverts_frame_error_prob() {
        let phy = PhyConfig::default();
        for per in [0.1, 0.3, 0.5, 0.9] {
            let d = phy.range_at_per(per);
            let back = phy.frame_error_prob(d, phy.reference_frame_len);
            assert!(
                (back - per).abs() < 1e-6,
                "per {per} -> d {d} -> per {back}"
            );
        }
    }

    #[test]
    fn longer_frames_fail_more() {
        let phy = PhyConfig::default();
        let short = phy.frame_error_prob(90.0, 50);
        let long = phy.frame_error_prob(90.0, 1500);
        assert!(long > short);
    }

    #[test]
    fn arq_improves_delivery() {
        let phy = PhyConfig::default();
        let d = 100.0;
        let once = phy.mgmt_delivery_prob(d, 400);
        let retried = phy.data_delivery_prob(d, 400);
        assert!(retried > once);
        assert!(retried <= 1.0);
    }

    #[test]
    fn airtime_scales_with_length() {
        let phy = PhyConfig::default();
        let a100 = phy.airtime(100);
        let a1500 = phy.airtime(1500);
        assert!(a1500 > a100);
        // 1500 B at 11 Mb/s ≈ 1091 µs payload + 552 µs overhead.
        let total_us = a1500.as_micros();
        assert!((1_500..1_800).contains(&total_us), "airtime {total_us} µs");
    }

    #[test]
    fn expected_airtime_at_least_single_attempt() {
        let phy = PhyConfig::default();
        for d in [10.0, 80.0, 150.0] {
            assert!(phy.expected_data_airtime(d, 1000) >= phy.airtime(1000));
        }
        // At hopeless range, expected attempts cap at the retry budget.
        let max = phy.airtime(1000).mul_f64((phy.data_retries + 1) as f64);
        assert!(phy.expected_data_airtime(10_000.0, 1000) <= max + Duration::from_nanos(10));
    }

    #[test]
    fn delivery_prob_monotone_in_attempts() {
        let phy = PhyConfig::default();
        let e = 0.4;
        let mut last = 0.0;
        for attempts in 1..8 {
            let p = phy.delivery_prob(e, attempts);
            assert!(p > last);
            last = p;
        }
    }
}
