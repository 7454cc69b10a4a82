//! The hardware header every result carries: host time means nothing
//! without the machine it was measured on.

use std::process::Command;

use crate::json;

/// What the run was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Hardware {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Cores available to this process.
    pub cores: usize,
    /// Total RAM, GiB.
    pub ram_gib: f64,
    /// Kernel release.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Commit of the code measured (`unknown` outside a git checkout).
    pub commit: String,
}

impl Hardware {
    /// Probe this machine. Every field falls back to `unknown` / 0.
    pub fn probe() -> Hardware {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let mem_kib = meminfo
            .lines()
            .find_map(|l| l.strip_prefix("MemTotal:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .unwrap_or(0.0);
        Hardware {
            cpu: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map_or_else(
                    || "unknown".to_string(),
                    |(_, name)| name.trim().to_string(),
                ),
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            ram_gib: mem_kib / (1024.0 * 1024.0),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }

    /// The header block printed above every result table.
    pub fn header(&self) -> String {
        format!(
            "----------------------\n{}\n{}-core CPU\n{:.1} GiB of RAM\nLinux {}\n{}\ncommit {}\n----------------------",
            self.cpu, self.cores, self.ram_gib, self.kernel, self.rustc, self.commit
        )
    }

    /// As a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":{},\"cores\":{},\"ram_gib\":{},\"kernel\":{},\"rustc\":{},\"commit\":{}}}",
            json::quote(&self.cpu),
            self.cores,
            json::number(self.ram_gib),
            json::quote(&self.kernel),
            json::quote(&self.rustc),
            json::quote(&self.commit)
        )
    }
}

/// First line of a command's stdout, or `unknown` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB; `None` once the process is gone.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_fills_the_header() {
        let hw = Hardware::probe();
        assert!(hw.cores >= 1);
        assert!(hw.header().contains("-core CPU"));
        let parsed = json::parse(&hw.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("cores").and_then(json::Value::as_f64),
            Some(hw.cores as f64)
        );
        assert!(peak_rss_mib("self").is_some_and(|mib| mib > 0.0));
    }
}
