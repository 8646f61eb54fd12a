//! Child processes under measurement: one-shot `fixctl` runs timed with
//! their own `rusage`, and a `fixd` daemon handle that is always reaped.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resource usage as filled in by `wait4(2)` on 64-bit Linux: two
/// `timeval`s, then fourteen `long` fields of which `ru_maxrss` (KiB) is
/// the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How one measured process ended.
pub struct Exit {
    /// True when it exited with code 0.
    pub success: bool,
    /// Spawn to reap.
    pub wall: Duration,
    /// Peak resident set of the child, in KiB.
    pub max_rss_kib: u64,
    /// User plus system CPU time of the child.
    pub cpu: Duration,
    /// Everything it printed on stdout.
    pub stdout: String,
}

/// Run `cmd` to completion: stdout captured, stderr passed through, wall
/// time from spawn to reap, peak RSS from the child's own `rusage`.
pub fn run_measured(cmd: &mut Command) -> Result<Exit, String> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `pid` names a child this process spawned and has not yet
        // reaped (std's `Child` only reaps in `wait`/`try_wait`, never
        // called here), and both out-pointers refer to live, properly
        // sized and aligned locals for the duration of the call.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let wall = started.elapsed();
    read.map_err(|e| format!("reading child stdout: {e}"))?;
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Exit {
        success,
        wall,
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        cpu: timeval(usage.utime) + timeval(usage.stime),
        stdout,
    })
}

fn timeval([secs, micros]: [i64; 2]) -> Duration {
    Duration::from_secs(u64::try_from(secs).unwrap_or(0))
        + Duration::from_micros(u64::try_from(micros).unwrap_or(0))
}

/// A running `fixd`. Dropping the handle kills and reaps the process if
/// [`Fixd::shutdown`] was not reached.
pub struct Fixd {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// `127.0.0.1:PORT` as announced by the daemon.
    pub addr: String,
    /// Spawn to the first `200` on `/healthz`.
    pub setup: Duration,
}

impl Fixd {
    /// Spawn `fixd` with `args`, wait for its listening banner, then poll
    /// `/healthz` until it answers `200`.
    pub fn start(bin: &str, args: &[String]) -> Result<Fixd, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut fixd = Fixd {
            child: Some(child),
            drain: None,
            addr: String::new(),
            setup: Duration::ZERO,
        };
        let (addr, drain) = read_banner(stdout)?;
        fixd.addr = addr;
        fixd.drain = Some(drain);
        let healthz = format!("http://{}/healthz", fixd.addr);
        loop {
            if let Ok((200, _)) = obs::http_get(&healthz) {
                break;
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err("fixd never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        fixd.setup = started.elapsed();
        Ok(fixd)
    }

    /// `http://ADDR` + `path`.
    pub fn url(&self, path: &str) -> String {
        format!("http://{}{}", self.addr, path)
    }

    /// Peak resident set (`VmHWM`) of the live daemon, in KiB.
    pub fn vm_hwm_kib(&self) -> Result<u64, String> {
        let pid = self
            .child
            .as_ref()
            .map(Child::id)
            .ok_or("fixd not running")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// `POST /shutdown`, then reap the process and its stdout reader.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = obs::http_request("POST", &self.url("/shutdown"), "text/plain", b"")
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        if reply.status != 202 {
            return Err(format!("POST /shutdown answered {}", reply.status));
        }
        let mut child = self.child.take().expect("shutdown runs once");
        let status = child.wait().map_err(|e| format!("waiting for fixd: {e}"))?;
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if !status.success() {
            return Err(format!("fixd exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Fixd {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Read the `fixd listening on http://ADDR` line, then keep draining the
/// pipe on a thread so the daemon's later prints never block or EPIPE.
fn read_banner(stdout: ChildStdout) -> Result<(String, JoinHandle<()>), String> {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading fixd stdout: {e}"))?;
        if n == 0 {
            return Err("fixd exited before announcing its address".into());
        }
        if let Some(url) = line.trim().strip_prefix("fixd listening on http://") {
            let addr = url.to_string();
            let drain = std::thread::spawn(move || {
                let mut sink = Vec::new();
                let _ = reader.read_to_end(&mut sink);
            });
            return Ok((addr, drain));
        }
    }
}
