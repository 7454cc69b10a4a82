//! Machine-readable run reports.
//!
//! [`RunResult`] holds raw sample sets; a
//! [`Report`] flattens it into the summary numbers the experiments print.
//! Serialization is fully in-tree, at two fidelities:
//!
//! * [`Report::to_json`] — the flattened *summary* (quantiles only),
//!   rounded to six decimals for stable, diff-friendly artifact files.
//!   Write-only: nothing reads a report back.
//! * [`RunRecord`] — the *full* run: every retained sample value at exact
//!   (shortest-roundtrip) precision, so a `RunResult` reconstructed from
//!   its record is bit-identical to the original and regenerates every
//!   figure byte-for-byte. This is what the campaign cache stores, and
//!   [`RunRecord::from_json`] reads it back through `sim_engine::json`.

use sim_engine::json::{self, JsonError, Value};
use sim_engine::stats::Samples;
use sim_engine::time::Duration;

use crate::fleet::ClientCounters;
use crate::world::RunResult;

/// A five-number summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Sample count.
    pub n: usize,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Quantiles {
    fn of(samples: &Samples) -> Quantiles {
        let mut s = samples.clone();
        Quantiles {
            n: s.count(),
            p10: s.quantile(0.10),
            p50: s.quantile(0.50),
            p90: s.quantile(0.90),
            max: if s.is_empty() { 0.0 } else { s.quantile(1.0) },
        }
    }

    fn json(&self) -> String {
        format!(
            r#"{{"n":{},"p10":{},"p50":{},"p90":{},"max":{}}}"#,
            self.n,
            fmt_f64(self.p10),
            fmt_f64(self.p50),
            fmt_f64(self.p90),
            fmt_f64(self.max)
        )
    }
}

/// The flattened summary of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment length, seconds.
    pub duration_secs: f64,
    /// Bytes delivered to the sink.
    pub total_bytes: u64,
    /// Average throughput, KB/s (the paper's unit).
    pub avg_throughput_kbps: f64,
    /// Fraction of seconds with non-zero transfer.
    pub connectivity: f64,
    /// Successful joins.
    pub joins: usize,
    /// Association attempts / failures.
    pub assoc_attempts: u64,
    /// See `assoc_attempts`.
    pub assoc_failures: u64,
    /// DHCP attempts / failures.
    pub dhcp_attempts: u64,
    /// See `dhcp_attempts`.
    pub dhcp_failures: u64,
    /// Channel switches performed.
    pub switch_count: u64,
    /// Peak simultaneous associations.
    pub max_concurrent_aps: usize,
    /// TCP retransmission timeouts.
    pub tcp_rtos: u64,
    /// Join-time distribution, seconds.
    pub join_times_s: Quantiles,
    /// Connection-run distribution, seconds (Fig. 10a).
    pub connections_s: Quantiles,
    /// Disruption-run distribution, seconds (Fig. 10b).
    pub disruptions_s: Quantiles,
    /// Instantaneous bandwidth, bytes per connected second (Fig. 10c).
    pub instantaneous_bps: Quantiles,
    /// Per-client counters, indexed by client slot (client 0 first).
    pub per_client: Vec<ClientCounters>,
}

impl Report {
    /// Flatten a [`RunResult`].
    pub fn from_run(result: &RunResult) -> Report {
        Report {
            duration_secs: result.duration.as_secs_f64(),
            total_bytes: result.total_bytes,
            avg_throughput_kbps: result.avg_throughput_kbps(),
            connectivity: result.connectivity,
            joins: result.join_times.count(),
            assoc_attempts: result.assoc_attempts,
            assoc_failures: result.assoc_failures,
            dhcp_attempts: result.dhcp_attempts,
            dhcp_failures: result.dhcp_failures,
            switch_count: result.switch_count,
            max_concurrent_aps: result.max_concurrent_aps,
            tcp_rtos: result.tcp_rtos,
            join_times_s: Quantiles::of(&result.join_times),
            connections_s: Quantiles::of(&result.connection_durations),
            disruptions_s: Quantiles::of(&result.disruption_durations),
            instantaneous_bps: Quantiles::of(&result.instantaneous_bandwidth),
            per_client: result.per_client.clone(),
        }
    }

    /// Serialize to a single JSON object (stable key order, no external
    /// JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                r#"{{"duration_secs":{},"total_bytes":{},"avg_throughput_kbps":{},"#,
                r#""connectivity":{},"joins":{},"assoc_attempts":{},"assoc_failures":{},"#,
                r#""dhcp_attempts":{},"dhcp_failures":{},"switch_count":{},"#,
                r#""max_concurrent_aps":{},"tcp_rtos":{},"join_times_s":{},"#,
                r#""connections_s":{},"disruptions_s":{},"instantaneous_bps":{}"#
            ),
            fmt_f64(self.duration_secs),
            self.total_bytes,
            fmt_f64(self.avg_throughput_kbps),
            fmt_f64(self.connectivity),
            self.joins,
            self.assoc_attempts,
            self.assoc_failures,
            self.dhcp_attempts,
            self.dhcp_failures,
            self.switch_count,
            self.max_concurrent_aps,
            self.tcp_rtos,
            self.join_times_s.json(),
            self.connections_s.json(),
            self.disruptions_s.json(),
            self.instantaneous_bps.json(),
        );
        push_per_client(&mut out, &self.per_client);
        out.push('}');
        out
    }
}

/// Serialize `per_client` as an object keyed by decimal client slot —
/// `"per_client":{"0":{"joins":…,"bytes":…,"cell_crossings":…},…}` —
/// appended after the legacy keys so pre-fleet parsers (which ignore
/// unknown keys) still read everything they understand.
fn push_per_client(out: &mut String, per_client: &[ClientCounters]) {
    out.push_str(",\"per_client\":{");
    for (slot, c) in per_client.iter().enumerate() {
        if slot > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{slot}\":{{\"joins\":{},\"bytes\":{},\"cell_crossings\":{}}}",
            c.joins, c.bytes, c.cell_crossings
        ));
    }
    out.push('}');
}

/// Read the optional `per_client` object. Absent key — a record written
/// before the fleet subsystem — parses as an empty vector.
fn per_client_field(root: &Value) -> Result<Vec<ClientCounters>, ReportParseError> {
    let Some(outer) = root.get("per_client") else {
        return Ok(Vec::new());
    };
    let outer = outer
        .as_object()
        .ok_or(ReportParseError::WrongType("per_client"))?;
    let mut out = vec![ClientCounters::default(); outer.len()];
    for (slot, counters) in outer {
        let idx: usize = slot
            .parse()
            .map_err(|_| ReportParseError::Malformed("per_client slot is not an index"))?;
        let entry = out
            .get_mut(idx)
            .ok_or(ReportParseError::Malformed("per_client slot out of range"))?;
        if counters.as_object().is_none() {
            return Err(ReportParseError::WrongType("per_client"));
        }
        *entry = ClientCounters {
            joins: uint(counters, "joins")?,
            bytes: uint(counters, "bytes")?,
            cell_crossings: uint(counters, "cell_crossings")?,
        };
    }
    Ok(out)
}

/// Why [`RunRecord::from_json`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportParseError {
    /// The text is not the record schema `to_json` emits.
    Malformed(&'static str),
    /// A required key was absent.
    MissingKey(&'static str),
    /// A key held a nested object where a number was expected (or vice
    /// versa).
    WrongType(&'static str),
    /// A numeric token parsed to NaN or ±infinity (e.g. `1e999`); records
    /// are finite by construction, so such input is corrupt.
    NonFinite,
}

impl core::fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReportParseError::Malformed(what) => write!(f, "malformed report JSON: {what}"),
            ReportParseError::MissingKey(key) => write!(f, "report JSON missing key {key:?}"),
            ReportParseError::WrongType(key) => write!(f, "report JSON key {key:?} has wrong type"),
            ReportParseError::NonFinite => write!(f, "report JSON contains a non-finite number"),
        }
    }
}

impl std::error::Error for ReportParseError {}

/// A non-finite value encountered while *writing* a record: the named
/// field held NaN or ±infinity, which the JSON schema cannot represent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonFiniteField(pub &'static str);

impl core::fmt::Display for NonFiniteField {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "run record field {:?} is not finite", self.0)
    }
}

impl std::error::Error for NonFiniteField {}

/// Full-fidelity serialization of a [`RunResult`].
///
/// Unlike [`Report`] (a rounded summary), a record retains **every sample
/// value at exact precision**: floats are written in Rust's
/// shortest-roundtrip decimal form and the duration as integer
/// nanoseconds, so `from_json(to_json(r))` reconstructs a `RunResult`
/// whose every statistic — quantiles, CDFs, means — is bit-identical to
/// the original's. The campaign cache relies on this: a cache *hit* must
/// regenerate a figure's text byte-for-byte as if the run had executed.
pub struct RunRecord;

/// Schema version stamped into every record (`"v"` key); bump when the
/// field set changes so stale cache entries are rejected, not misread.
pub const RUN_RECORD_VERSION: u64 = 1;

impl RunRecord {
    /// Serialize `result` losslessly.
    ///
    /// Errors if any float in the result is NaN or infinite (the
    /// simulator never produces one; hitting this means corrupt state
    /// that must not be cached).
    pub fn to_json(result: &RunResult) -> Result<String, NonFiniteField> {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"v\":{RUN_RECORD_VERSION},\"duration_ns\":{}",
            result.duration.as_nanos()
        ));
        for (key, value) in [
            ("total_bytes", result.total_bytes),
            ("dhcp_attempts", result.dhcp_attempts),
            ("dhcp_failures", result.dhcp_failures),
            ("assoc_attempts", result.assoc_attempts),
            ("assoc_failures", result.assoc_failures),
            ("switch_count", result.switch_count),
            ("tcp_rtos", result.tcp_rtos),
            ("backhaul_drops", result.backhaul_drops),
            ("psm_drops", result.psm_drops),
            ("unassociated_drops", result.unassociated_drops),
            ("air_drops", result.air_drops),
            ("max_concurrent_aps", result.max_concurrent_aps as u64),
        ] {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str(",\"avg_throughput_bps\":");
        out.push_str(&fmt_f64_exact(
            result.avg_throughput_bps,
            "avg_throughput_bps",
        )?);
        out.push_str(",\"connectivity\":");
        out.push_str(&fmt_f64_exact(result.connectivity, "connectivity")?);
        out.push_str(",\"concurrency_seconds\":");
        push_array(&mut out, &result.concurrency_seconds, "concurrency_seconds")?;
        for (key, samples) in [
            ("connection_durations", &result.connection_durations),
            ("disruption_durations", &result.disruption_durations),
            ("instantaneous_bandwidth", &result.instantaneous_bandwidth),
            ("assoc_times", &result.assoc_times),
            ("join_times", &result.join_times),
            ("switch_latencies", &result.switch_latencies),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            push_array(&mut out, samples.values(), key)?;
        }
        push_per_client(&mut out, &result.per_client);
        out.push('}');
        Ok(out)
    }

    /// Reconstruct a [`RunResult`] from [`RunRecord::to_json`] output.
    pub fn from_json(json: &str) -> Result<RunResult, ReportParseError> {
        let root = parse_json(json)?;
        if uint(&root, "v")? != RUN_RECORD_VERSION {
            return Err(ReportParseError::Malformed("unsupported record version"));
        }
        let samples = |key: &'static str| -> Result<Samples, ReportParseError> {
            let mut s = Samples::new();
            for v in array(&root, key)? {
                s.record(v.as_f64().ok_or(ReportParseError::WrongType(key))?);
            }
            Ok(s)
        };
        Ok(RunResult {
            duration: Duration::from_nanos(uint(&root, "duration_ns")?),
            total_bytes: uint(&root, "total_bytes")?,
            avg_throughput_bps: num(&root, "avg_throughput_bps")?,
            connectivity: num(&root, "connectivity")?,
            connection_durations: samples("connection_durations")?,
            disruption_durations: samples("disruption_durations")?,
            instantaneous_bandwidth: samples("instantaneous_bandwidth")?,
            assoc_times: samples("assoc_times")?,
            join_times: samples("join_times")?,
            switch_latencies: samples("switch_latencies")?,
            dhcp_attempts: uint(&root, "dhcp_attempts")?,
            dhcp_failures: uint(&root, "dhcp_failures")?,
            assoc_attempts: uint(&root, "assoc_attempts")?,
            assoc_failures: uint(&root, "assoc_failures")?,
            switch_count: uint(&root, "switch_count")?,
            max_concurrent_aps: count(&root, "max_concurrent_aps")?,
            concurrency_seconds: floats(&root, "concurrency_seconds")?,
            tcp_rtos: uint(&root, "tcp_rtos")?,
            backhaul_drops: uint(&root, "backhaul_drops")?,
            psm_drops: uint(&root, "psm_drops")?,
            unassociated_drops: uint(&root, "unassociated_drops")?,
            air_drops: uint(&root, "air_drops")?,
            per_client: per_client_field(&root)?,
        })
    }
}

/// Exact (shortest-roundtrip) float formatting; errors on non-finite.
fn fmt_f64_exact(v: f64, field: &'static str) -> Result<String, NonFiniteField> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(NonFiniteField(field))
    }
}

/// Append `values` as a JSON array at exact precision.
fn push_array(out: &mut String, values: &[f64], field: &'static str) -> Result<(), NonFiniteField> {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64_exact(v, field)?);
    }
    out.push(']');
    Ok(())
}

fn parse_json(json: &str) -> Result<Value, ReportParseError> {
    json::parse(json).map_err(|e| match e {
        JsonError::Syntax(what, _) => ReportParseError::Malformed(what),
        JsonError::NonFinite(_) => ReportParseError::NonFinite,
        JsonError::TooDeep(_) => ReportParseError::Malformed("nesting too deep"),
    })
}

fn field<'a>(obj: &'a Value, key: &'static str) -> Result<&'a Value, ReportParseError> {
    obj.get(key).ok_or(ReportParseError::MissingKey(key))
}

/// Any number under `key`.
fn num(obj: &Value, key: &'static str) -> Result<f64, ReportParseError> {
    field(obj, key)?
        .as_f64()
        .ok_or(ReportParseError::WrongType(key))
}

/// An exact non-negative integer under `key`. Counters never pass through
/// `f64`, which rounds above 2^53.
fn uint(obj: &Value, key: &'static str) -> Result<u64, ReportParseError> {
    field(obj, key)?
        .as_u64()
        .ok_or(ReportParseError::WrongType(key))
}

fn count(obj: &Value, key: &'static str) -> Result<usize, ReportParseError> {
    usize::try_from(uint(obj, key)?).map_err(|_| ReportParseError::WrongType(key))
}

fn array<'a>(obj: &'a Value, key: &'static str) -> Result<&'a [Value], ReportParseError> {
    field(obj, key)?
        .as_array()
        .ok_or(ReportParseError::WrongType(key))
}

/// An array of numbers under `key`.
fn floats(obj: &Value, key: &'static str) -> Result<Vec<f64>, ReportParseError> {
    array(obj, key)?
        .iter()
        .map(|v| v.as_f64().ok_or(ReportParseError::WrongType(key)))
        .collect()
}

/// JSON-safe float formatting (no NaN/inf; finite shortest-ish form).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // Limit precision for stable, diff-friendly output.
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpiderConfig;
    use crate::world::{run, ClientMotion, WorldConfig};
    use mobility::deployment::ApSite;
    use mobility::geometry::Point;
    use sim_engine::time::Duration;
    use wifi_mac::channel::Channel;

    fn sample_run() -> RunResult {
        let site = ApSite {
            id: 1,
            position: Point::new(0.0, 0.0),
            channel: Channel::CH1,
            backhaul_bps: 2_000_000,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(300),
        };
        run(WorldConfig::new(
            5,
            vec![site],
            ClientMotion::Fixed(Point::new(0.0, 10.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(15),
        ))
    }

    #[test]
    fn report_reflects_the_run() {
        let result = sample_run();
        let report = Report::from_run(&result);
        assert_eq!(report.total_bytes, result.total_bytes);
        assert_eq!(report.joins, result.join_times.count());
        assert!((report.duration_secs - 15.0).abs() < 1e-9);
        assert!(report.avg_throughput_kbps > 0.0);
    }

    #[test]
    fn json_is_wellformed_enough_to_roundtrip_keys() {
        let report = Report::from_run(&sample_run());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "total_bytes",
            "avg_throughput_kbps",
            "connectivity",
            "join_times_s",
            "instantaneous_bps",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing key {key} in {json}"
            );
        }
        // Balanced braces and no NaN/inf tokens.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn json_roundtrips_through_from_json() {
        // A run read back from its record flattens to the same summary
        // bytes as the fresh run: a cache hit prints what a run prints.
        let result = sample_run();
        let json = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&json).expect("parse");
        assert_eq!(
            Report::from_run(&back).to_json(),
            Report::from_run(&result).to_json()
        );
    }

    #[test]
    fn from_json_accepts_whitespace_and_ignores_unknown_keys() {
        let json = RunRecord::to_json(&sample_run()).expect("serialize");
        let pretty = json.replace(',', ",\n  ").replace('{', "{ ").replacen(
            '{',
            "{\"schema_version\": 1,",
            1,
        );
        let parsed = RunRecord::from_json(&pretty).expect("parse pretty variant");
        assert_eq!(RunRecord::to_json(&parsed).expect("serialize"), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            RunRecord::from_json("not json"),
            Err(ReportParseError::Malformed(_))
        ));
        assert!(matches!(
            RunRecord::from_json("{\"v\":1}"),
            Err(ReportParseError::MissingKey(_))
        ));
        let truncated = RunRecord::to_json(&sample_run()).expect("serialize");
        let truncated = &truncated[..truncated.len() - 2];
        assert!(RunRecord::from_json(truncated).is_err());
    }

    #[test]
    fn from_json_rejects_wrong_types() {
        let swapped = RunRecord::to_json(&sample_run())
            .expect("serialize")
            .replace(
                "\"total_bytes\":",
                "\"total_bytes\":{\"n\":0},\"was_total_bytes\":",
            );
        assert_eq!(
            RunRecord::from_json(&swapped).err(),
            Some(ReportParseError::WrongType("total_bytes"))
        );
    }

    #[test]
    fn nonfinite_numeric_tokens_get_the_typed_error() {
        let json = RunRecord::to_json(&sample_run()).expect("serialize");
        let poisoned = json.replacen("\"connectivity\":", "\"connectivity\":1e999,\"was\":", 1);
        assert_eq!(
            RunRecord::from_json(&poisoned).err(),
            Some(ReportParseError::NonFinite)
        );
    }

    #[test]
    fn run_record_roundtrip_is_exact() {
        let result = sample_run();
        let json = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&json).expect("parse");
        // Fixpoint: re-serializing the reconstruction is byte-identical.
        assert_eq!(RunRecord::to_json(&back).expect("serialize"), json);
        // Bit-exact sample values and scalars, so every derived statistic
        // (quantiles, CDFs) matches the fresh run exactly.
        assert_eq!(back.duration, result.duration);
        assert_eq!(back.total_bytes, result.total_bytes);
        assert_eq!(
            back.avg_throughput_bps.to_bits(),
            result.avg_throughput_bps.to_bits()
        );
        assert_eq!(back.connectivity.to_bits(), result.connectivity.to_bits());
        assert_eq!(back.join_times.values(), result.join_times.values());
        assert_eq!(back.assoc_times.values(), result.assoc_times.values());
        assert_eq!(
            back.instantaneous_bandwidth.values(),
            result.instantaneous_bandwidth.values()
        );
        assert_eq!(back.concurrency_seconds, result.concurrency_seconds);
        // The flattened summary agrees too.
        assert_eq!(Report::from_run(&back), Report::from_run(&result));
    }

    #[test]
    fn run_record_rejects_version_drift_and_truncation() {
        let json = RunRecord::to_json(&sample_run()).expect("serialize");
        let newer = json.replacen("{\"v\":1,", "{\"v\":2,", 1);
        assert!(matches!(
            RunRecord::from_json(&newer),
            Err(ReportParseError::Malformed("unsupported record version"))
        ));
        for cut in [json.len() / 4, json.len() / 2, json.len() - 1] {
            assert!(
                RunRecord::from_json(&json[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn run_record_refuses_to_serialize_nonfinite_state() {
        let mut result = sample_run();
        result.avg_throughput_bps = f64::INFINITY;
        assert_eq!(
            RunRecord::to_json(&result),
            Err(NonFiniteField("avg_throughput_bps"))
        );
    }

    #[test]
    fn per_client_counters_roundtrip_u64_exact() {
        let mut result = sample_run();
        // Above 2^53 so the f64 path would silently round — must stay exact.
        result.per_client = vec![
            ClientCounters {
                joins: 3,
                bytes: u64::MAX - 7,
                cell_crossings: 12,
            },
            ClientCounters::default(),
        ];
        let json = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&json).expect("parse");
        assert_eq!(back.per_client, result.per_client);
        assert_eq!(RunRecord::to_json(&back).expect("serialize"), json);
    }

    #[test]
    fn pre_fleet_json_without_per_client_still_parses() {
        let result = sample_run();
        let strip = |json: &str| {
            let start = json.find(",\"per_client\":").expect("per_client emitted");
            format!("{}}}", &json[..start])
        };
        let record = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&strip(&record)).expect("legacy record parses");
        assert!(back.per_client.is_empty());
        assert_eq!(back.total_bytes, result.total_bytes);
        assert_eq!(back.join_times.values(), result.join_times.values());
    }

    #[test]
    fn per_client_rejects_bad_slots_and_types() {
        let mut result = sample_run();
        result.per_client = vec![ClientCounters::default()];
        let json = RunRecord::to_json(&result).expect("serialize");
        let bad_slot = json.replacen("\"per_client\":{\"0\":", "\"per_client\":{\"9\":", 1);
        assert!(matches!(
            RunRecord::from_json(&bad_slot),
            Err(ReportParseError::Malformed("per_client slot out of range"))
        ));
        let bad_type = json.replacen("\"per_client\":{\"0\":", "\"per_client\":{\"x\":", 1);
        assert!(matches!(
            RunRecord::from_json(&bad_type),
            Err(ReportParseError::Malformed(_))
        ));
    }

    #[test]
    fn float_formatting_is_json_safe() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(0.333333333), "0.333333");
    }

    #[test]
    fn report_counters_are_exact_non_negative_integers() {
        let mut result = sample_run();
        // Above 2^53, where a read through f64 rounds.
        result.total_bytes = u64::MAX - 7;
        let json = RunRecord::to_json(&result).expect("serialize");
        let back = RunRecord::from_json(&json).expect("parse");
        assert_eq!(back.total_bytes, u64::MAX - 7);
        assert_eq!(RunRecord::to_json(&back).expect("serialize"), json);
        for (key, bad) in [("max_concurrent_aps", "-3"), ("assoc_attempts", "1.9")] {
            let start = json.find(&format!("\"{key}\":")).expect("key") + key.len() + 3;
            let end = start + json[start..].find(',').expect("comma follows");
            let poisoned = format!("{}{bad}{}", &json[..start], &json[end..]);
            assert_eq!(
                RunRecord::from_json(&poisoned).err(),
                Some(ReportParseError::WrongType(key)),
                "{poisoned}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "{\"a\":".repeat(200_000);
        assert!(RunRecord::from_json(&deep).is_err());
    }
}
